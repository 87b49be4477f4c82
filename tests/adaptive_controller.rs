//! The adaptive domain controller, end to end:
//!
//! * **Epoch-freq decay** — barren passes on a pinned domain deepen the
//!   decay (observable through `epoch_decay_steps`) and thin the
//!   triggered passes; the first freeable sweep drains *everything* and
//!   resets the cadence — no reclamation-latency cliff.
//! * **Static pinning** — `with_adaptive(false)` (the `POP_ADAPTIVE=0`
//!   CI leg) never decays and runs every triggered pass in full.
//!
//! Both pin `retire_batch = 1`, so every retire seals and a pass triggers
//! exactly every `reclaim_freq` retires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pop::smr::{retire_node, Ebr, HasHeader, Header, Smr, SmrConfig};

#[repr(C)]
struct Node {
    hdr: Header,
    v: u64,
}
unsafe impl HasHeader for Node {}

fn alloc<S: Smr>(smr: &S, tid: usize, v: u64) -> *mut Node {
    smr.note_alloc(tid, core::mem::size_of::<Node>());
    Box::into_raw(Box::new(Node {
        hdr: Header::new(smr.current_era(), core::mem::size_of::<Node>()),
        v,
    }))
}

#[test]
fn decayed_domain_rebounds_without_a_latency_cliff() {
    let smr = Ebr::new(
        SmrConfig::for_tests(2)
            .with_reclaim_freq(32)
            .with_retire_batch(1) // deterministic seal/trigger points
            .with_adaptive(true), // pin against the POP_ADAPTIVE=0 CI leg
    );
    let reg0 = smr.register(0);
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let pinner = std::thread::spawn({
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        move || {
            let reg1 = smr.register(1);
            smr.begin_op(1); // parks in the current epoch
            tx.send(()).unwrap();
            while !stop.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            smr.end_op(1);
            drop(reg1);
        }
    });
    rx.recv().unwrap();
    // 64 triggers' worth of retires, all pinned: passes are barren.
    for i in 0..32 * 64 {
        smr.begin_op(0);
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
        smr.end_op(0);
    }
    let s = smr.stats().snapshot();
    assert_eq!(s.freed_nodes, 0, "reader pins everything");
    assert!(
        s.epoch_decay_steps >= 1,
        "barren passes must decay the cadence"
    );
    assert!(
        s.epoch_passes < 64,
        "decay must thin triggered passes ({} full passes)",
        s.epoch_passes
    );
    // The reader leaves; the very next flush frees the whole backlog in
    // one pass — the decay never delays a *possible* free, only skips
    // provably barren work.
    stop.store(true, Ordering::Release);
    pinner.join().unwrap();
    smr.flush(0);
    assert_eq!(
        smr.stats().snapshot().unreclaimed_nodes(),
        0,
        "first freeable sweep drains the entire backlog"
    );
    drop(reg0);
}

#[test]
fn adaptive_off_is_fully_static() {
    let smr = Ebr::new(
        SmrConfig::for_tests(2)
            .with_reclaim_freq(32)
            .with_retire_batch(1)
            .with_adaptive(false),
    );
    let reg0 = smr.register(0);
    let reg1 = smr.register(1);
    smr.begin_op(1); // stalled reader: every pass barren
    for i in 0..32 * 16 {
        smr.begin_op(0);
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
        smr.end_op(0);
    }
    let s = smr.stats().snapshot();
    assert_eq!(s.epoch_decay_steps, 0, "no decay when adaptive is off");
    assert_eq!(s.epoch_passes, 16, "every trigger runs a full pass");
    smr.end_op(1);
    smr.flush(0);
    assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
    drop(reg1);
    drop(reg0);
}
