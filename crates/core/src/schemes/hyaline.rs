//! `Hyaline-1` — batched reference counting in the Hyaline/Crystalline
//! family (Nikolaev & Ravindran), standing in for the paper's appendix
//! Crystalline comparison: its op-boundary counting without Crystalline's
//! robustness.
//!
//! Readers pay one fetch-and-add on a shared word at operation entry and
//! one at exit — the family's signature cost profile (no per-read work, but
//! op-boundary contention on shared counters, unlike EBR's per-thread
//! announcements). A pass (every `reclaim_freq` retires domain-wide) takes
//! the domain's retire pool and pushes it as one *batch* onto a global
//! list; a batch carries a reference count equal to the number of
//! readers active at push time, and each such reader decrements it on exit.
//! Whoever brings the count to zero frees the whole batch — reclamation is
//! fully asynchronous (no reclaimer ever waits).
//!
//! ## The packed-word trick
//!
//! Correct counting requires the *batch-list head* and the *active-reader
//! count* to change atomically (otherwise a reader can be counted for a
//! batch it will never decrement, or vice versa). Hyaline uses a
//! double-word CAS on `(HPtr, HRef)`; portable Rust has no stable 128-bit
//! atomic, so we pack a 32-bit batch *index* (into an append-only arena)
//! and a 32-bit count into one `AtomicU64`:
//!
//! * `enter`: `FAA(word, +1)` — atomically increments the count *and*
//!   observes the head index the reader entered at.
//! * `exit`: `FAA(word, -1)` — atomically decrements *and* observes the
//!   current head; the reader then walks head → its entry index,
//!   decrementing every batch pushed during its activity.
//! * `push`: CAS `(old_head, count) → (new_head, count)`; the count in the
//!   successful CAS is exactly the set of readers that will decrement.
//!
//! Batch structs are freed by the zero-decrementer; arena indices are never
//! reused (no ABA). Like real Hyaline-1 (and unlike Crystalline proper),
//! this is **not robust**: a stalled reader pins every batch sealed during
//! its stay.

use core::sync::atomic::{AtomicI64, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;

use crate::base::DomainBase;
use crate::config::SmrConfig;
use crate::header::{RetireBatch, Retired};
use crate::pass::{self, Cause, Engine, Pass};
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

/// Maximum batches per domain (indices are never recycled).
const ARENA_CAP: usize = 1 << 16;
/// Bias keeping a batch's refcount positive until the pusher adjusts it.
const BIAS: i64 = 1 << 40;

const COUNT_MASK: u64 = 0xFFFF_FFFF;

struct Batch {
    /// Remaining decrements + pusher adjustment (see BIAS).
    refs: AtomicI64,
    /// Arena index of the next-older batch (0 = end of list).
    next_idx: u32,
    /// Sealed blocks the pusher took from the retire pool — Hyaline's
    /// historical node `Vec` replaced by the shared block pipeline, so
    /// retirement and settlement both work block-at-a-time (boxed on
    /// purpose: blocks travel as single pointers).
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<RetireBatch>>,
}

/// Single-slot Hyaline batched reference counting.
pub struct Hyaline {
    base: DomainBase,
    /// Packed `(head_idx << 32) | active_count`.
    word: CachePadded<AtomicU64>,
    /// Append-only idx → batch arena (slot 0 unused: 0 is the nil index).
    arena: Box<[AtomicPtr<Batch>]>,
    next_free_idx: CachePadded<AtomicU64>,
    /// Head index each tid observed at `begin_op`.
    entry_idx: Box<[CachePadded<AtomicU64>]>,
}

impl Hyaline {
    #[inline]
    fn resolve(&self, idx: u32) -> *mut Batch {
        self.arena[idx as usize].load(Ordering::Acquire)
    }

    /// Frees every node of `batch` and the batch itself, accounting on
    /// `tid`'s stat shard.
    ///
    /// # Safety
    ///
    /// Caller must be the decrementer that brought `refs` to zero, running
    /// on the thread registered as `tid`.
    unsafe fn free_batch(&self, tid: usize, batch: *mut Batch) {
        // SAFETY: exclusive access per the zero-decrementer contract.
        let b = unsafe { Box::from_raw(batch) };
        for mut blk in b.blocks {
            // SAFETY: every counted reader has exited (refs == 0) and the
            // nodes were unlinked before the batch was pushed. One stats
            // update per block.
            unsafe { self.base.free_block(tid, &mut blk) };
        }
    }

    /// Walks `head_idx → entry_idx` (exclusive), decrementing each batch
    /// pushed during the calling reader's activity.
    fn traverse_and_decrement(&self, tid: usize, head_idx: u32, entry_idx: u32) {
        let mut cur_idx = head_idx;
        while cur_idx != entry_idx && cur_idx != 0 {
            let batch = self.resolve(cur_idx);
            debug_assert!(!batch.is_null(), "walked to unpublished batch");
            // Read `next` *before* the decrement: after decrementing, the
            // batch may be freed by us or anyone.
            // SAFETY: this batch counted us (pushed after our enter-FAA),
            // so it cannot reach zero refs before our decrement.
            let next = unsafe { (*batch).next_idx };
            // SAFETY: as above — our reference keeps the batch alive until
            // this decrement completes.
            let prev = unsafe { (*batch).refs.fetch_sub(1, Ordering::AcqRel) };
            if prev == 1 {
                // SAFETY: we brought refs to zero.
                unsafe { self.free_batch(tid, batch) };
            }
            cur_idx = next;
        }
    }
}

/// Hyaline1's pass is its sweep: it pushes everything the pass took as one
/// batch. Every taken node was unlinked before the take, so before the
/// push: the readers the push counts cover them all.
impl Engine for Hyaline {
    unsafe fn sweep(&self, p: &mut Pass) {
        if p.scratch.taken.is_empty() {
            return;
        }
        let blocks = core::mem::take(&mut p.scratch.taken);
        let idx = self.next_free_idx.fetch_add(1, Ordering::Relaxed);
        assert!(
            (idx as usize) < ARENA_CAP,
            "Hyaline batch arena exhausted; raise reclaim_freq or ARENA_CAP"
        );
        let idx = idx as u32;
        let batch = Box::into_raw(Box::new(Batch {
            refs: AtomicI64::new(BIAS),
            next_idx: 0,
            blocks,
        }));
        self.arena[idx as usize].store(batch, Ordering::Release);
        loop {
            let w = self.word.load(Ordering::Acquire);
            let count = (w & COUNT_MASK) as i64;
            // SAFETY: not yet reachable — we own the batch until the CAS.
            unsafe { (*batch).next_idx = (w >> 32) as u32 };
            let new = ((idx as u64) << 32) | (w & COUNT_MASK);
            if self
                .word
                .compare_exchange_weak(w, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                // Adjust the bias to the actual reader count at push time.
                // SAFETY: batch is published; refs is atomic.
                let prev = unsafe { (*batch).refs.fetch_add(count - BIAS, Ordering::AcqRel) };
                if prev + count - BIAS == 0 {
                    // Every counted reader already exited (decrementing the
                    // bias) — we are the effective zero-decrementer.
                    // SAFETY: refs reached zero with our adjustment.
                    unsafe { self.free_batch(p.tid, batch) };
                }
                p.base
                    .stats
                    .shard(p.tid)
                    .epoch_passes
                    .fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
    }
}

impl Smr for Hyaline {
    const NAME: &'static str = "Hyaline1";
    const ROBUST: bool = false;
    const NEEDS_SIGNALS: bool = false;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        let n = cfg.max_threads;
        let mut arena = Vec::with_capacity(ARENA_CAP);
        arena.resize_with(ARENA_CAP, || AtomicPtr::new(core::ptr::null_mut()));
        Arc::new(Hyaline {
            base: DomainBase::new(cfg),
            word: CachePadded::new(AtomicU64::new(0)),
            arena: arena.into_boxed_slice(),
            next_free_idx: CachePadded::new(AtomicU64::new(1)),
            entry_idx: (0..n).map(|_| CachePadded::default()).collect(),
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
    }

    fn unregister(&self, tid: usize) {
        // Push whatever is left as a final batch; it frees when the last
        // concurrent reader exits.
        self.flush(tid);
        self.base.release(tid);
    }

    /// Hyaline `enter`: one FAA atomically joins the active set and records
    /// the entry head.
    #[inline]
    fn begin_op(&self, tid: usize) {
        let w = self.word.fetch_add(1, Ordering::SeqCst);
        debug_assert!((w & COUNT_MASK) < COUNT_MASK, "active count overflow");
        self.entry_idx[tid].store(w >> 32, Ordering::Relaxed);
    }

    /// Hyaline `leave`: one FAA leaves the active set, then the reader
    /// settles its debts on batches pushed during its stay.
    #[inline]
    fn end_op(&self, tid: usize) {
        let w = self.word.fetch_sub(1, Ordering::SeqCst);
        let head = (w >> 32) as u32;
        let entry = self.entry_idx[tid].load(Ordering::Relaxed) as u32;
        if head != entry {
            self.traverse_and_decrement(tid, head, entry);
        }
    }

    #[inline]
    fn protect<T>(&self, _tid: usize, _slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        // Readers are protected by batch reference counting; a read is a
        // plain load.
        Ok(src.load(Ordering::Acquire))
    }

    #[inline]
    unsafe fn retire(&self, tid: usize, retired: Retired) {
        pass::retire(self, &self.base, tid, retired);
    }

    fn flush(&self, tid: usize) {
        pass::run(self, &self.base, tid, Cause::Flush);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::pass::testing::{phases_of, PASS};
    use crate::smr::retire_node;
    use std::sync::atomic::AtomicBool;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn alloc(smr: &Hyaline, v: u64) -> *mut N {
        smr.note_alloc(0, core::mem::size_of::<N>());
        Box::into_raw(Box::new(N {
            hdr: Header::new(0, core::mem::size_of::<N>()),
            v,
        }))
    }

    #[test]
    fn no_readers_batch_frees_at_push() {
        let smr = Hyaline::new(SmrConfig::for_tests(1).with_reclaim_freq(4));
        let reg = smr.register(0);
        smr.begin_op(0);
        for i in 0..3 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.end_op(0);
        // Quiescent: the push (via flush) sees count == 0 and frees itself.
        assert_eq!(phases_of(|| smr.flush(0)), PASS, "the driver's phases");
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn active_reader_defers_batch_until_exit() {
        let smr = Hyaline::new(SmrConfig::for_tests(2).with_reclaim_freq(4));
        let reg0 = smr.register(0);
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = std::sync::mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                smr.end_op(1); // exit settles the debt and frees the batch
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        for i in 0..8 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        assert!(
            smr.stats().snapshot().unreclaimed_nodes() > 0,
            "active reader was counted; batch must wait for it"
        );
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        assert_eq!(
            smr.stats().snapshot().unreclaimed_nodes(),
            0,
            "reader exit frees the deferred batch"
        );
        drop(reg0);
    }

    #[test]
    fn reader_entering_after_push_owes_nothing() {
        let smr = Hyaline::new(SmrConfig::for_tests(2).with_reclaim_freq(2));
        let reg0 = smr.register(0);
        let reg1 = smr.register(1);
        // Push a batch with nobody active: frees instantly.
        for i in 0..2 {
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        // A later reader must not underflow any refcount on exit.
        smr.begin_op(1);
        smr.end_op(1);
        drop(reg1);
        drop(reg0);
    }

    #[test]
    fn many_batches_under_churning_readers() {
        let smr = Hyaline::new(SmrConfig::for_tests(3).with_reclaim_freq(8));
        let stop = Arc::new(AtomicBool::new(false));
        let mut readers = Vec::new();
        for t in 1..3 {
            readers.push(std::thread::spawn({
                let smr = Arc::clone(&smr);
                let stop = Arc::clone(&stop);
                move || {
                    let reg = smr.register(t);
                    while !stop.load(Ordering::Acquire) {
                        smr.begin_op(t);
                        std::hint::spin_loop();
                        smr.end_op(t);
                    }
                    drop(reg);
                }
            }));
        }
        let reg0 = smr.register(0);
        for i in 0..5000u64 {
            smr.begin_op(0);
            let p = alloc(&smr, i);
            unsafe { retire_node(&*smr, 0, p) };
            smr.end_op(0);
        }
        stop.store(true, Ordering::Release);
        for r in readers {
            r.join().unwrap();
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.retired_nodes, 5000);
        assert_eq!(
            s.unreclaimed_nodes(),
            0,
            "all batches settle once readers drain"
        );
        drop(reg0);
    }
}
