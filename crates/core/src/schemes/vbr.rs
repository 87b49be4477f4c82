//! `VBR` — version-based reclamation over the owned slab arenas (scheme
//! #12, PR 10).
//!
//! Readers announce the global **version** on operation entry (one ordered
//! store per operation, like EBR) and `u64::MAX` on exit. A reclamation
//! pass is a *version bump*: `version += 1`, scan the announcements, and
//! free every sealed block whose members were all retired strictly before
//! the minimum announced version — with the slab allocator's
//! address-monotone fills, almost every such block settles whole against
//! its slab in one range test (`slab_frees_whole`), and fully-empty slabs
//! are recycled whole (the overflow past the allocator's warm cache hands
//! its pages back to the OS, `slab_released_bytes`).
//!
//! The scheme's defining trade: instead of the reclaimer pinging laggards
//! (POP's signal/membarrier fan-out), the *reader* re-validates its own
//! announcement on every read. A reader whose announced version has fallen
//! [`VBR_MAX_LAG`] or more bumps behind the global version is
//! **version-aborted**: `protect` refreshes the announcement to the
//! current version and returns [`Restart`] *before* loading the pointer.
//! One read by the laggard therefore unpins everything it held — the ping
//! is reader-initiated, so VBR needs neither signals nor membarrier
//! (`NEEDS_SIGNALS = false`) and its publish mode resolves to `None`.
//!
//! Garbage is bounded by `VBR_MAX_LAG` bumps for every reader that keeps
//! reading. The residual gap (hence `ROBUST = false`, same flag as EBR): a
//! reader parked *inside* an operation that never reads again pins its
//! announcement's version until it wakes — but unlike EBR, the very first
//! read after waking aborts and unpins, rather than resuming on stale
//! protection. Crashed participants are handled by the registry's
//! dead-participant reaping, as for every scheme.
//!
//! **No quarantine, by construction** (PR 10 satellite 4): the pressure
//! ladder's rung-3 stalled-reader quarantine exists for schemes where one
//! stalled reader pins unbounded garbage. Under VBR one read by the
//! laggard drains the whole backlog (the abort refreshes its
//! announcement), so parking pinned blocks buys nothing: the pass plan has
//! no `Quarantine` arm and the domain's stalled-reader quarantine is never
//! engaged. The `blocks_quarantined` counter is structurally zero for this
//! scheme.
//!
//! Write phases (`begin_write`/`end_write`) suspend the abort check:
//! NBR-style writers that already hold validated references must not be
//! restarted mid-CAS. Lag is re-checked (and the announcement refreshed)
//! in `begin_write` itself, before the write phase is entered.

use core::sync::atomic::{fence, AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::base::{
    push_retired, scan_epoch_reservations, sweep_blocks, BlockPlan, DomainBase, RetireSlot,
};
use crate::config::SmrConfig;
use crate::controller::{PassAction, PassController};
use crate::header::{Header, Retired};
use crate::pressure::{PressureRung, HARD_RETRY_LIMIT};
use crate::smr::{ReadResult, Restart, Smr};
use crate::stats::DomainStats;

/// Version announced while quiescent.
pub(crate) const QUIESCENT: u64 = u64::MAX;

/// Maximum tolerated announcement lag, in version bumps. A reader whose
/// announced version trails the global version by at least this much is
/// version-aborted on its next `protect` (outside write phases). Small
/// enough to bound garbage to a few retire batches per thread; large
/// enough that a reader racing one concurrent pass never aborts.
pub const VBR_MAX_LAG: u64 = 8;

struct ThreadState {
    retire: RetireSlot,
    /// Inside `begin_write`..`end_write`: version aborts are suppressed.
    in_write: AtomicBool,
    /// Operations since registration (diagnostic only; VBR has no clock
    /// tick — the version moves on reclamation passes alone).
    op_count: AtomicU64,
}

/// Version-based reclamation (scheme #12): bump, scan, settle whole slabs.
pub struct Vbr {
    base: DomainBase,
    /// The global version word. Bumped (SeqCst) once per reclamation pass.
    version: CachePadded<AtomicU64>,
    /// Pass-cadence decay (adaptive controller), same pacing as EBR.
    ctl: PassController,
    /// `announced[tid]`: the version the thread entered its operation at.
    announced: Box<[CachePadded<AtomicU64>]>,
    threads: Box<[CachePadded<ThreadState>]>,
}

impl Vbr {
    /// One version-bump pass. Same controller discipline as EBR's epoch
    /// pass: retire-triggered passes are subject to decay thinning, forced
    /// (flush/unregister/pressure) passes always run full.
    fn reclaim_version_freeable(&self, tid: usize, forced: bool) {
        let rung = self.base.stats.pressure().rung();
        if rung >= PressureRung::Soft {
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
        // Reclamation *is* a version bump: one RMW on the global word.
        self.version.fetch_add(1, Ordering::SeqCst);
        // Order the announcement scan after this thread's preceding
        // unlinks (and after the bump above).
        fence(Ordering::SeqCst);
        let (min, _relaxed) = scan_epoch_reservations(&self.base, QUIESCENT, |t| {
            self.announced[t].load(Ordering::SeqCst)
        });
        // SAFETY: tid ownership per the registration contract.
        let list = unsafe { self.threads[tid].retire.get() };
        // No reclaim_released_quarantine call: VBR never parks blocks (see
        // the module docs) — there is nothing to hand back.
        shard.observe_retire_len(list.len());
        // SAFETY: a block whose maximum retire version is strictly below
        // every announced version is unreachable — any reader that could
        // still hold a reference to a member announced no later than that
        // member's retire version, and that announcement is still honored
        // by this min-scan until the reader's next read refreshes it.
        // Whole-block verdicts only — VBR never splits a block (no Mask)
        // and never quarantines.
        let freed = unsafe {
            sweep_blocks(&self.base, tid, list, |b| {
                let (_, _, max_retire) = b.era_ranges();
                if max_retire < min {
                    BlockPlan::FreeAll
                } else {
                    BlockPlan::KeepAll
                }
            })
        };
        if self.ctl.note_pass_outcome(freed) {
            shard.epoch_decay_steps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Lag check + re-announce. Returns `Err(Restart)` (and counts a
    /// version abort) when the announcement had gone stale.
    #[inline]
    fn check_lag(&self, tid: usize) -> Result<(), Restart> {
        let cur = self.version.load(Ordering::Relaxed);
        let mine = self.announced[tid].load(Ordering::Relaxed);
        if mine != QUIESCENT && cur.wrapping_sub(mine) >= VBR_MAX_LAG {
            // Stale: refresh the announcement so the retried operation
            // starts current, then abort the read.
            self.announced[tid].store(cur, Ordering::SeqCst);
            self.base
                .stats
                .shard(tid)
                .version_aborts
                .fetch_add(1, Ordering::Relaxed);
            return Err(Restart);
        }
        Ok(())
    }

    /// Current minimum announced version (test/diagnostic use).
    pub fn min_version(&self) -> u64 {
        let mut min = u64::MAX;
        for t in 0..self.base.cfg.max_threads {
            if self.base.is_registered(t) {
                min = min.min(self.announced[t].load(Ordering::SeqCst));
            }
        }
        min
    }
}

impl Smr for Vbr {
    const NAME: &'static str = "VBR";
    const ROBUST: bool = false;
    const NEEDS_SIGNALS: bool = false;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let n = cfg.max_threads;
        let mut announced = Vec::with_capacity(n);
        announced.resize_with(n, || CachePadded::new(AtomicU64::new(QUIESCENT)));
        let mut threads = Vec::with_capacity(n);
        threads.resize_with(n, || {
            CachePadded::new(ThreadState {
                retire: RetireSlot::for_cfg(&cfg),
                in_write: AtomicBool::new(false),
                op_count: AtomicU64::new(0),
            })
        });
        Arc::new(Vbr {
            version: CachePadded::new(AtomicU64::new(1)),
            ctl: PassController::new(cfg.adaptive),
            announced: announced.into_boxed_slice(),
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
        self.announced[tid].store(QUIESCENT, Ordering::SeqCst);
        self.threads[tid].in_write.store(false, Ordering::Relaxed);
        // SAFETY: tid was just claimed; this thread owns the slot.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.adopt_orphan_chunk(tid, list);
    }

    fn unregister(&self, tid: usize) {
        self.announced[tid].store(QUIESCENT, Ordering::SeqCst);
        self.flush(tid);
        // SAFETY: tid ownership until release.
        let list = unsafe { self.threads[tid].retire.get() };
        self.base.orphan_remaining(tid, list);
        self.base.release(tid);
    }

    #[inline]
    fn begin_op(&self, tid: usize) {
        let ts = &self.threads[tid];
        ts.op_count.fetch_add(1, Ordering::Relaxed);
        // SeqCst: the announcement must be globally visible before this
        // thread reads any data-structure pointer (the one ordered store
        // VBR pays per operation — same cost model as EBR).
        self.announced[tid].store(self.version.load(Ordering::Relaxed), Ordering::SeqCst);
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        self.threads[tid].in_write.store(false, Ordering::Relaxed);
        self.announced[tid].store(QUIESCENT, Ordering::Release);
    }

    #[inline]
    fn protect<T>(&self, tid: usize, _slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        // Version readers are pre-protected by their announcement — but
        // only while it is fresh. A stale announcement version-aborts
        // (outside write phases) instead of pinning garbage.
        if !self.threads[tid].in_write.load(Ordering::Relaxed) {
            self.check_lag(tid)?;
        }
        Ok(src.load(Ordering::Acquire))
    }

    fn check_restart(&self, tid: usize) -> Result<(), Restart> {
        if self.threads[tid].in_write.load(Ordering::Relaxed) {
            return Ok(());
        }
        self.check_lag(tid)
    }

    fn begin_write(&self, tid: usize, _protected: &[*mut Header]) -> Result<(), Restart> {
        // Last abort window before the write phase: once in_write is set,
        // this thread will not be restarted until end_write.
        self.check_lag(tid)?;
        self.threads[tid].in_write.store(true, Ordering::Relaxed);
        Ok(())
    }

    fn end_write(&self, tid: usize) {
        self.threads[tid].in_write.store(false, Ordering::Relaxed);
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: tid ownership.
        let list = unsafe { self.threads[tid].retire.get() };
        if push_retired(&self.base, tid, list, retired) {
            self.reclaim_version_freeable(tid, false);
            // Pressure rung 2: bounded forced retries, same shape as EBR.
            // (Rung 3 quarantine does not exist for VBR — see module docs.)
            let mut tries = 0u32;
            while tries < HARD_RETRY_LIMIT
                && self.base.stats.pressure().rung() >= PressureRung::Hard
            {
                for _ in 0..(64u32 << tries) {
                    core::hint::spin_loop();
                }
                self.reclaim_version_freeable(tid, true);
                tries += 1;
            }
        }
    }

    fn current_era(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    fn flush(&self, tid: usize) {
        self.reclaim_version_freeable(tid, true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::smr::{alloc_node, retire_node};

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn alloc(smr: &Arc<Vbr>, v: u64) -> *mut N {
        alloc_node(
            &**smr,
            0,
            N {
                hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
                v,
            },
        )
    }

    #[test]
    fn single_thread_reclaims_after_quiescence() {
        let smr = Vbr::new(SmrConfig::for_tests(1));
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
    fn stalled_reader_aborts_and_unpins_on_next_read() {
        // Pin adaptive off: every retire trigger runs a full pass, so the
        // version advances deterministically past VBR_MAX_LAG.
        let smr = Vbr::new(SmrConfig::for_tests(2).with_adaptive(false));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Reader enters at the current version and stalls.
        smr.begin_op(1);
        let slot = AtomicPtr::new(core::ptr::null_mut::<N>());
        assert!(
            smr.protect(1, 0, &slot).is_ok(),
            "fresh announcement must not abort"
        );
        // Writer churns: every full pass bumps the version. The parked
        // announcement pins the backlog retired after the pin.
        for i in 0..2000 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        smr.flush(0);
        let s1 = smr.stats().snapshot();
        assert!(
            s1.unreclaimed_nodes() > 0,
            "a parked announcement is honored until the reader's next read"
        );
        // The stalled reader's next read aborts with a version restart —
        // and the abort itself re-announces a fresh version.
        assert!(
            smr.protect(1, 0, &slot).is_err(),
            "stale announcement must version-abort"
        );
        assert!(smr.stats().snapshot().version_aborts >= 1);
        // The retry proceeds, and the refreshed announcement unpins the
        // backlog: one read by the laggard is the whole ping.
        assert!(smr.protect(1, 0, &slot).is_ok(), "retry runs current");
        smr.flush(0);
        assert!(
            smr.stats().snapshot().freed_nodes > s1.freed_nodes,
            "the backlog drains as soon as the laggard reads once"
        );
        smr.end_op(1);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn write_phase_suppresses_version_aborts() {
        let smr = Vbr::new(SmrConfig::for_tests(2).with_adaptive(false));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        smr.begin_op(1);
        assert!(smr.begin_write(1, &[]).is_ok());
        for i in 0..2000 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        let slot = AtomicPtr::new(core::ptr::null_mut::<N>());
        assert!(
            smr.protect(1, 0, &slot).is_ok(),
            "writers are never restarted mid-write-phase"
        );
        assert!(smr.check_restart(1).is_ok());
        smr.end_write(1);
        // Outside the write phase the stale announcement aborts again.
        assert!(smr.protect(1, 0, &slot).is_err());
        smr.end_op(1);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn reclamation_is_a_version_bump() {
        let smr = Vbr::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let v0 = smr.current_era();
        // Op path alone never moves the version word.
        for _ in 0..64 {
            smr.begin_op(0);
            smr.end_op(0);
        }
        assert_eq!(smr.current_era(), v0, "ops do not bump the version");
        smr.flush(0);
        assert!(
            smr.current_era() > v0,
            "a reclamation pass is exactly a version bump"
        );
        drop(reg);
    }

    #[test]
    fn no_quarantine_by_construction() {
        // Satellite 4 (unit half): even with quarantine enabled, the
        // pressure ladder fully escalated, and a reader parked across
        // heavy churn, VBR parks nothing — the pass plan has no
        // Quarantine arm, so the rung-3 quarantine is a structural no-op.
        let smr = Vbr::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(16)
                .with_retire_batch(1)
                .with_pressure_watermarks(64, 96, 128)
                .with_quarantine(),
        );
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        smr.begin_op(1); // parked reader pins everything retired after it
        for i in 0..4000 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert!(
            s.pressure_emergency_trips >= 1,
            "the ladder must have escalated for the no-op to mean anything: {s:?}"
        );
        assert_eq!(
            s.blocks_quarantined, 0,
            "VBR must never quarantine (no-op rung by construction)"
        );
        assert!(
            s.unreclaimed_nodes() > 0,
            "the parked announcement is honored meanwhile"
        );
        smr.end_op(1);
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.unreclaimed_nodes(), 0, "drains once the reader leaves");
        assert_eq!(s.blocks_quarantined, 0);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn min_version_ignores_unregistered_slots() {
        let smr = Vbr::new(SmrConfig::for_tests(4));
        let reg = smr.register(2);
        smr.begin_op(2);
        assert_eq!(smr.min_version(), smr.announced[2].load(Ordering::SeqCst));
        smr.end_op(2);
        assert_eq!(smr.min_version(), QUIESCENT);
        drop(reg);
    }
}
