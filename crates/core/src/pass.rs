//! The reclamation pass, written once: [`run`] runs every reclaiming
//! scheme's pass (`flush` and `unregister` too) in one fixed order,
//! [`retire`] is their one retire path, and the schemes supply hooks
//! ([`Engine`]).
//!
//! The paper's Algorithms 1, 3 and 5 share one skeleton and differ only
//! in how reservations become visible; so do the passes here:
//!
//! | phase | hook | HP · HE · POP (`hazard`) | EBR · EpochPOP · VBR · IBR (`epoch`) | NBR+ | Hyaline1 |
//! |-------|------|------|------|------|------|
//! | 1 take | — | the pool | the pool | the pool | the pool |
//! | 2 advance | [`Engine::advance`] | era (`Era` only) | epoch | — | — |
//! | 3 make visible | [`Engine::make_visible`] | fence · ping + wait + reap · membarrier | fence | neutralise + wait + reap | — |
//! | 4 scan | [`Engine::scan`] | reserved words | announced floor | write-phase words | — |
//! | 5 sweep | [`Engine::sweep`] | pointer or era filter | epoch floor (IBR: intervals) | pointer filter | push the batch |
//! | 6 after sweep | [`Engine::after_sweep`] | — | EpochPOP: escalate, count what it kept | — | — |
//! | 7 put back | — | survivors | survivors | survivors | (nothing left) |
//!
//! **Why the take comes first: any pass may free any pooled block.** A
//! block holds only nodes its sealer unlinked before it pushed the block.
//! The push happens-before the take (the stripe mutex), and the take
//! happens before the pass advances its clock, makes reservations visible
//! or scans them. So every node a pass took was unlinked before its scan,
//! exactly as if the pass had retired it itself, and the pass's own
//! predicate, which covers every thread's reservations, decides it. A block
//! pushed after the take waits for the next pass: it may hold a node
//! unlinked after this scan, which a reader could have reserved unseen.
//!
//! **Why the advance comes before the visibility step.** A reservation
//! made after the clock moved names the new era or epoch, which no taken
//! node's lifespan reaches (Property 6 for eras); one made before it is
//! visible to the scan. Every seal that owes no pass is a tick instead
//! ([`Engine::tick`]; `base.rs`, "The clocks move with retires").
//!
//! **Free nothing when nothing is proven.** A visibility step that could
//! not show every reader's pointers visible (NBR+'s wait timed out on a
//! peer it cannot neutralise) skips the scan and the sweep: the pass keeps
//! everything it took for the next pass.

use crate::base::{node_count, DomainBase, ReclaimScratch, RetireList, Verdict};
use crate::header::Retired;

/// Logs a phase to the test-only recorder; nothing outside tests.
macro_rules! record {
    ($phase:ident) => {
        #[cfg(test)]
        testing::record(testing::Phase::$phase);
    };
}

/// Why a pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Cause {
    /// A seal crossed the domain trigger.
    Trigger,
    /// `flush` (and so `unregister`): drain all that can be drained.
    Flush,
}

/// A pass in progress, handed to every hook: the domain, the reclaimer's
/// tid, its fill bins and its scratch (`taken`: what the pass took).
pub(crate) struct Pass<'a> {
    pub base: &'a DomainBase,
    pub tid: usize,
    pub cause: Cause,
    pub list: &'a mut RetireList,
    pub scratch: &'a mut ReclaimScratch,
}

/// A reclaiming scheme's part of a pass: the hooks [`run`] calls, in the
/// order of the module docs. The defaults do nothing.
pub(crate) trait Engine {
    /// A seal that owes no pass ([`Verdict::Tick`]): advance the clock,
    /// or nothing.
    #[inline]
    fn tick(&self) {}

    /// Phase 2: advance the clock, after the take and before any
    /// reservation is made visible.
    fn advance(&self, _p: &mut Pass) {}

    /// Phase 3: make every reservation visible to the reclaimer's scan,
    /// then reap at most one confirmed-dead peer. `false` when it could
    /// not: the pass then frees nothing.
    fn make_visible(&self, _p: &mut Pass) -> bool {
        true
    }

    /// Phase 4: read the visible reservations into `p.scratch`.
    fn scan(&self, _p: &mut Pass) {}

    /// Phase 5: free what the scan leaves unprotected of what the pass
    /// took.
    ///
    /// # Safety
    ///
    /// Only the driver calls it, after phases 1–4 in order.
    unsafe fn sweep(&self, p: &mut Pass);

    /// Phase 6: sees what the sweep kept before it goes back to the pool.
    fn after_sweep(&self, _p: &mut Pass) {}
}

/// `Smr::retire` of every reclaiming scheme, as `tid` (the caller's): push,
/// then tick or pass. Out of line, so a traversal that retires calls this
/// one symbol and the seal, tick and pass behind it stay out of its code.
#[inline(never)]
pub(crate) fn retire<E: Engine>(e: &E, base: &DomainBase, tid: usize, r: Retired) {
    match base.push(tid, r) {
        Verdict::Fill => {}
        Verdict::Tick => e.tick(),
        Verdict::Pass => run(e, base, tid, Cause::Trigger),
    }
}

/// One pass as `tid`, the caller's registered tid: take, advance, make
/// visible, scan, sweep, after-sweep, put back (module docs).
pub(crate) fn run<E: Engine>(e: &E, base: &DomainBase, tid: usize, cause: Cause) {
    // SAFETY: `tid` is the caller's registered tid, and the pass holds the
    // only borrow of its cells until it returns (a reap opens only a dead
    // peer's).
    let (list, scratch) = unsafe { base.cells(tid) };
    let p = &mut Pass {
        base,
        tid,
        cause,
        list,
        scratch,
    };
    record!(Take);
    base.take(tid, p.list, &mut p.scratch.taken);
    record!(Advance);
    e.advance(p);
    make_visible_and_sweep(e, p);
    record!(AfterSweep);
    e.after_sweep(p);
    record!(PutBack);
    base.put_back(tid, &mut p.scratch.taken);
}

/// Phases 3–5 of a pass over what it took; also EpochPOP's escalation,
/// which reruns them with HazardPtrPOP's hooks from its after-sweep.
/// Called only inside [`run`], after the take.
pub(crate) fn make_visible_and_sweep<E: Engine>(e: &E, p: &mut Pass) {
    record!(Visible);
    let proven = e.make_visible(p);
    if proven {
        record!(Scan);
        e.scan(p);
    }
    let shard = p.base.stats.shard(p.tid);
    shard.observe_retire_len(node_count(&p.scratch.taken));
    if proven {
        record!(Sweep);
        // SAFETY: phases 1–4 ran in order: every node taken was unlinked
        // before the visibility step, after which every reader has its
        // words in the scan, has left, was provably quiescent, or fails its
        // validation against those unlinks.
        unsafe { e.sweep(p) };
    }
}

/// The phase recorder: what the passes run on this thread logged. Each
/// reclaiming scheme's tests check their passes with it.
#[cfg(test)]
pub(crate) mod testing {
    use std::cell::RefCell;
    use Phase::*;

    /// A pass phase, as the recorder logs it.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub(crate) enum Phase {
        Take,
        Advance,
        Visible,
        Scan,
        Sweep,
        AfterSweep,
        PutBack,
    }

    thread_local! {
        static PHASES: RefCell<Vec<Phase>> = const { RefCell::new(Vec::new()) };
    }

    pub(super) fn record(phase: Phase) {
        PHASES.with(|log| log.borrow_mut().push(phase));
    }

    /// The phases the passes `f` ran on this thread, in order.
    pub(crate) fn phases_of(f: impl FnOnce()) -> Vec<Phase> {
        PHASES.with(|log| log.borrow_mut().clear());
        f();
        PHASES.with(|log| log.take())
    }

    /// One pass without an escalation or an exit.
    pub(crate) const PASS: [Phase; 7] = [Take, Advance, Visible, Scan, Sweep, AfterSweep, PutBack];
}
