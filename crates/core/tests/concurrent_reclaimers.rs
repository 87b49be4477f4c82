//! Concurrent reclaimers and signal coalescing.
//!
//! The paper (§4.1.1, parenthetical after `waitForAllPublished`): "when
//! multiple reclaimers send signals simultaneously, the signals are
//! effectively coalesced, and a reader publishing reservations once is
//! sufficient to satisfy all concurrent reclaimers." These tests drive
//! several reclaimers into simultaneous ping rounds against common readers.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use pop_core::{retire_node, EpochPop, HasHeader, HazardPtrPop, Header, Smr, SmrConfig};

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
fn simultaneous_reclaimers_coalesce_pings() {
    const RECLAIMERS: usize = 3;
    let smr = HazardPtrPop::new(SmrConfig::for_tests(RECLAIMERS + 1).with_reclaim_freq(64));
    let stop = Arc::new(AtomicBool::new(false));
    let start = Arc::new(Barrier::new(RECLAIMERS + 1));

    // One reader spinning in protected reads.
    let reader = {
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        let start = Arc::clone(&start);
        std::thread::spawn(move || {
            let reg = smr.register(RECLAIMERS);
            let node = alloc(&*smr, RECLAIMERS, 7);
            let src = core::sync::atomic::AtomicPtr::new(node);
            // Hold a reservation *before* releasing the reclaimers, so the
            // quiescent-thread filter cannot elide every ping: a reader
            // with a live local reservation must be signalled.
            smr.begin_op(RECLAIMERS);
            let _ = smr.protect(RECLAIMERS, 0, &src).unwrap();
            start.wait();
            while !stop.load(Ordering::Relaxed) {
                let p = smr.protect(RECLAIMERS, 0, &src).unwrap();
                assert_eq!(unsafe { (*p).v }, 7);
            }
            smr.end_op(RECLAIMERS);
            // Private node: free directly.
            unsafe { drop(Box::from_raw(node)) };
            smr.note_dealloc_unpublished(RECLAIMERS, core::mem::size_of::<N>());
            drop(reg);
        })
    };

    // Several reclaimers retiring simultaneously.
    let mut handles = Vec::new();
    for tid in 0..RECLAIMERS {
        let smr = Arc::clone(&smr);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            let reg = smr.register(tid);
            start.wait();
            for i in 0..2_000u64 {
                let p = alloc(&*smr, tid, i);
                unsafe { retire_node(&*smr, tid, p) };
            }
            smr.flush(tid);
            drop(reg);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    reader.join().unwrap();

    let s = smr.stats().snapshot();
    assert_eq!(s.retired_nodes, (RECLAIMERS as u64) * 2_000);
    assert_eq!(
        s.unreclaimed_nodes(),
        0,
        "all garbage drained despite concurrent reclaimers: {s:?}"
    );
    assert!(s.pings_sent > 0);
    // Coalescing means publishes need not equal pings; both only have to
    // make progress.
    assert!(s.publishes > 0);
}

#[test]
fn epoch_pop_mixed_mode_reclaimers() {
    // One thread reclaims via epochs while another escalates to pings —
    // the paper's "two threads could be reclaiming at the same time in
    // either mode" (§2.3).
    const THREADS: usize = 2;
    let smr = EpochPop::new(SmrConfig::for_tests(THREADS + 1).with_reclaim_freq(64));
    let stop = Arc::new(AtomicBool::new(false));

    // A slow reader pins old epochs intermittently, forcing some (not all)
    // reclaimers into POP mode.
    let laggard = {
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let reg = smr.register(THREADS);
            while !stop.load(Ordering::Relaxed) {
                smr.begin_op(THREADS);
                std::thread::sleep(std::time::Duration::from_millis(5));
                smr.end_op(THREADS);
            }
            drop(reg);
        })
    };

    let mut handles = Vec::new();
    for tid in 0..THREADS {
        let smr = Arc::clone(&smr);
        handles.push(std::thread::spawn(move || {
            let reg = smr.register(tid);
            for i in 0..3_000u64 {
                smr.begin_op(tid);
                let p = alloc(&*smr, tid, i);
                unsafe { retire_node(&*smr, tid, p) };
                smr.end_op(tid);
            }
            smr.flush(tid);
            drop(reg);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    laggard.join().unwrap();

    let s = smr.stats().snapshot();
    assert!(s.epoch_passes > 0, "epoch fast path used");
    assert_eq!(s.unreclaimed_nodes(), 0, "drained: {s:?}");
}
