//! Integration coverage for the batched retirement pipeline and the
//! epoch clock.
//!
//! * Partial batches are sealed (and accounted) on `unregister` — nothing
//!   is leaked, and the conservation law `retired == freed` holds once a
//!   later pass takes the pooled remainder and reclaims it.
//! * Block-granular sweeps free exactly what a per-node (`retire_batch 1`)
//!   configuration frees — same survivors, same totals.
//! * EBR / EpochPOP / IBR never write the shared epoch word from the op
//!   path: it moves only with retires (ticks and passes).
//! * The quiescent filter skips a long-idle peer on every pass (one slot
//!   scan each, never a ping), and garbage still drains.

use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use pop_core::{
    retire_node, Ebr, EpochPop, HasHeader, HazardPtr, HazardPtrPop, Header, Hyaline, Ibr,
    PublishMode, Smr, SmrConfig, RETIRE_BATCH_CAP,
};

#[repr(C)]
struct N {
    hdr: Header,
    v: u64,
}
unsafe impl HasHeader for N {}

fn alloc<S: Smr>(smr: &S, tid: usize, v: u64) -> *mut N {
    smr.note_alloc(tid, core::mem::size_of::<N>());
    Box::into_raw(Box::new(N {
        hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
        v,
    }))
}

#[test]
fn unregister_seals_partial_batch_and_a_later_pass_reclaims_it() {
    // Thread 0 retires a sub-batch amount (nothing sealed yet) while
    // thread 1 holds a reservation pinning one node, then unregisters:
    // the partial batch must be sealed (accounted) and the pinned node
    // left in the retire pool — never leaked. A later registrant's pass
    // takes it and frees it once the reservation clears.
    // Batch pinned: this test needs the retires to stay unsealed until
    // unregister, which the POP_RETIRE_BATCH=1 fallback leg would defeat.
    let smr = HazardPtr::new(
        SmrConfig::for_tests(2)
            .with_reclaim_freq(1 << 16)
            .with_retire_batch(RETIRE_BATCH_CAP),
    );
    let reg1 = smr.register(1);
    let reg0 = smr.register(0);

    let hot = alloc(&*smr, 0, 7);
    let src = AtomicPtr::new(hot);
    let _ = smr.protect(1, 0, &src).unwrap();
    src.store(core::ptr::null_mut(), Ordering::SeqCst);
    unsafe { retire_node(&*smr, 0, hot) };
    for i in 0..9 {
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
    }
    // Test premise: all 10 retires stay below one RETIRE_BATCH_CAP block.
    assert_eq!(
        smr.stats().snapshot().retired_nodes,
        0,
        "sub-batch retires are unaccounted until a seal point"
    );
    drop(reg0); // unregister: flush + seal partial bins into the pool
    let s = smr.stats().snapshot();
    assert_eq!(s.retired_nodes, 10, "unregister sealed the partial batch");
    assert_eq!(
        s.freed_nodes, 9,
        "everything unreserved freed on the way out"
    );
    assert_eq!(s.unreclaimed_nodes(), 1, "the pinned node stays pooled");
    // One partial block per fill bin the ten nodes' addresses touched.
    assert!(s.batches_sealed >= 1, "the partial fill was sealed: {s:?}");

    // Release the reservation; a joining thread's pass reclaims.
    smr.end_op(1);
    let reg0 = smr.register(0);
    smr.flush(0);
    let s = smr.stats().snapshot();
    assert_eq!(s.retired_nodes, 10, "the pool never recounts retires");
    assert_eq!(s.freed_nodes, 10, "conservation: all retired nodes freed");
    drop(reg0);
    drop(reg1);
}

/// Runs the same retire workload (with a pinned node) under the given
/// batch setting and returns (retired, freed, unreclaimed).
fn survivors_with_batch(batch: usize) -> (u64, u64, u64) {
    let smr = HazardPtrPop::new(
        SmrConfig::for_tests(2)
            .with_reclaim_freq(16)
            .with_retire_batch(batch),
    );
    let reg0 = smr.register(0);
    let hot = alloc(&*smr, 0, 42);
    let src = AtomicPtr::new(hot);
    smr.begin_op(0);
    let _ = smr.protect(0, 0, &src).unwrap();
    src.store(core::ptr::null_mut(), Ordering::SeqCst);
    unsafe { retire_node(&*smr, 0, hot) };
    for i in 0..100u64 {
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
    }
    smr.flush(0);
    let s = smr.stats().snapshot();
    let out = (s.retired_nodes, s.freed_nodes, s.unreclaimed_nodes());
    smr.end_op(0);
    smr.flush(0);
    assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
    drop(reg0);
    out
}

#[test]
fn block_sweep_matches_per_node_sweep() {
    let batched = survivors_with_batch(RETIRE_BATCH_CAP);
    let per_node = survivors_with_batch(1);
    assert_eq!(
        batched, per_node,
        "block-granular sweep must free the same set as per-node sweeps"
    );
    assert_eq!(batched.2, 1, "exactly the reserved node survives");
}

#[test]
fn batched_retires_count_fewer_stat_rmws() {
    // Observability of the amortization itself: 128 retires at the full
    // batch cost at most 128 / RETIRE_BATCH_CAP stat RMWs, each for a whole
    // block (fewer when the nodes' addresses spread over several fill
    // bins, which then hold partial blocks until the flush). Batch pinned
    // against the POP_RETIRE_BATCH=1 fallback leg.
    let smr = Ebr::new(
        SmrConfig::for_tests(1)
            .with_reclaim_freq(1 << 16)
            .with_retire_batch(RETIRE_BATCH_CAP),
    );
    let reg = smr.register(0);
    let n = 4 * RETIRE_BATCH_CAP as u64;
    for i in 0..n {
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
    }
    let s = smr.stats().snapshot();
    assert!(s.batches_sealed <= 4, "{s:?}");
    assert_eq!(s.retired_nodes, s.batches_sealed * RETIRE_BATCH_CAP as u64);
    smr.flush(0);
    assert_eq!(
        smr.stats().snapshot().retired_nodes,
        n,
        "flush seals the rest"
    );
    drop(reg);
}

/// Shared shape of the epoch-write-discipline assertion: op brackets
/// never move the scheme's global epoch word; retires do.
fn assert_epoch_never_written_by_ops<S: Smr>(scheme: &str) {
    let smr = S::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
    let reg = smr.register(0);
    let e0 = smr.current_era();
    for _ in 0..50 {
        smr.begin_op(0);
        smr.end_op(0);
    }
    assert_eq!(
        smr.current_era(),
        e0,
        "{scheme}: op path must never write the shared epoch word"
    );
    // Retires tick the word, and a pass advances it.
    for i in 0..8u64 {
        smr.begin_op(0);
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
        smr.end_op(0);
    }
    smr.flush(0);
    assert!(
        smr.current_era() > e0,
        "{scheme}: retires and passes must advance the epoch"
    );
    smr.flush(0);
    drop(reg);
}

#[test]
fn epoch_word_never_written_by_the_op_path() {
    assert_epoch_never_written_by_ops::<Ebr>("EBR");
    assert_epoch_never_written_by_ops::<EpochPop>("EpochPOP");
    assert_epoch_never_written_by_ops::<Ibr>("IBR");
}

#[test]
fn idle_peer_is_skipped_by_the_slot_scan_every_pass_and_still_drains() {
    // Signal path pinned: the membarrier mode never filters per peer.
    // Unbatched, so every eighth retire triggers a pass: these Box nodes
    // route to fill bins by heap address, and a run whose nodes span
    // several slab-sized ranges would otherwise trigger fewer passes.
    let smr = HazardPtrPop::new(
        SmrConfig::for_tests(2)
            .with_reclaim_freq(8)
            .with_retire_batch(1)
            .with_publish_mode(PublishMode::Futex),
    );
    let reg0 = smr.register(0);
    let hold = Arc::new(AtomicBool::new(true));
    let (tx, rx) = std::sync::mpsc::channel();
    let idler = std::thread::spawn({
        let smr = Arc::clone(&smr);
        let hold = Arc::clone(&hold);
        move || {
            let reg1 = smr.register(1);
            smr.begin_op(1);
            smr.end_op(1);
            tx.send(()).unwrap();
            while hold.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
            drop(reg1);
        }
    });
    rx.recv().unwrap();
    // Sixteen-plus passes, each with the idle peer as the only other
    // participant: every one proves it quiescent with the binary check.
    for round in 0..16u64 {
        for i in 0..8u64 {
            let p = alloc(&*smr, 0, round * 8 + i);
            unsafe { retire_node(&*smr, 0, p) };
        }
    }
    smr.flush(0);
    let s = smr.stats().snapshot();
    assert!(s.pop_passes >= 16, "{s:?}");
    assert_eq!(s.pings_sent, 0, "idle peer never signalled");
    assert_eq!(
        s.pings_skipped, s.pop_passes,
        "one binary skip per pass, no other elision path: {s:?}"
    );
    assert_eq!(s.unreclaimed_nodes(), 0, "elision must not block frees");
    hold.store(false, Ordering::Release);
    idler.join().unwrap();
    drop(reg0);
}

#[test]
fn hyaline_batches_ride_the_shared_blocks() {
    // Hyaline's global batches now carry sealed RetireBatch blocks; the
    // block-granular settlement must still free everything and the seal
    // accounting must stay exact.
    let smr = Hyaline::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
    let reg = smr.register(0);
    for i in 0..100u64 {
        smr.begin_op(0);
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
        smr.end_op(0);
    }
    smr.flush(0);
    let s = smr.stats().snapshot();
    assert_eq!(s.retired_nodes, 100);
    assert_eq!(s.unreclaimed_nodes(), 0);
    assert!(s.batches_sealed >= 100 / RETIRE_BATCH_CAP as u64);
    drop(reg);
}
