//! Reading through a `Row` — `Smr::row` once per traversal, then
//! `Smr::protect_in` for each read — is the same read as `Smr::protect`:
//!
//! * for all twelve schemes, both return the same pointer, mark bits
//!   included, from every slot;
//! * for every scheme that reserves words, a node a reader holds through a
//!   row survives a concurrent unlink, retire and flush until the reader's
//!   `end_op`, and is freed after it — under both publish modes;
//! * a structure refuses a domain with fewer hazard slots than its
//!   traversals use, in every build profile (CI runs this file in release
//!   too), instead of reserving in a word no pass scans.

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;

use pop::ds::nm_tree::{self, NmTree};
use pop::smr::{
    alloc_node, dealloc_node_unpublished, retire_node, Ebr, EpochPop, HasHeader, HazardEra,
    HazardEraPop, HazardPtr, HazardPtrAsym, HazardPtrPop, Header, Hyaline, Ibr, NbrPlus, NoReclaim,
    OpGuard, PublishMode, Smr, SmrConfig, Vbr,
};

#[repr(C)]
struct N {
    hdr: Header,
    v: u64,
}
// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for N {}

fn node<S: Smr>(smr: &S, tid: usize, v: u64) -> *mut N {
    let hdr = Header::new(smr.current_era(), core::mem::size_of::<N>());
    alloc_node(smr, tid, N { hdr, v })
}

/// `protect_in(&row(tid), s, &link)` equals `protect(tid, s, &link)` for
/// every slot and every combination of the two low mark bits the
/// structures use, and both return the link's raw value.
fn row_reads_match_protect<S: Smr>() {
    let smr = S::new(SmrConfig::for_tests(2));
    let reg = smr.register(1);
    let tid = reg.tid();
    let a = node(&*smr, tid, 1);
    {
        let _op = OpGuard::enter(&*smr, tid);
        let row = smr.row(tid);
        assert_eq!(row.tid(), tid);
        for raw in [0, 1, 2, 3].map(|mark| (a as usize | mark) as *mut N) {
            let link = AtomicPtr::new(raw);
            for slot in 0..smr.config().slots {
                let through_row = smr.protect_in(&row, slot, &link);
                assert_eq!(through_row, Ok(raw), "slot {slot}");
                assert_eq!(through_row, smr.protect(tid, slot, &link), "slot {slot}");
            }
        }
        let null = AtomicPtr::new(core::ptr::null_mut::<N>());
        assert_eq!(smr.protect_in(&row, 0, &null), smr.protect(tid, 0, &null));
    }
    // SAFETY: `a` was only ever read through this thread's own links.
    unsafe { dealloc_node_unpublished(&*smr, tid, a) };
}

macro_rules! matches_protect {
    ($($name:ident : $scheme:ty),+ $(,)?) => {
        mod matches_protect {
            use super::*;
            $(
                #[test]
                fn $name() {
                    row_reads_match_protect::<$scheme>();
                }
            )+
        }
    };
}

matches_protect! {
    nr: NoReclaim,
    ebr: Ebr,
    hp: HazardPtr,
    hp_asym: HazardPtrAsym,
    he: HazardEra,
    ibr: Ibr,
    nbr_plus: NbrPlus,
    hyaline: Hyaline,
    hp_pop: HazardPtrPop,
    he_pop: HazardEraPop,
    epoch_pop: EpochPop,
    vbr: Vbr,
}

/// A reader (tid 1, its own thread) resolves its row inside an operation,
/// reads a decoy through slot 0 and the hot node through slot 1, then spins
/// holding both. Tid 0 unlinks the hot node, retires it and flushes: the
/// node must survive (the quarantine oracle would see it freed). Once the
/// reader's `end_op` runs, one more flush must free it.
fn held_through_a_row<S: Smr>(mode: PublishMode) {
    let smr = S::new(
        SmrConfig::for_tests(2)
            .with_publish_mode(mode)
            .with_reclaim_freq(4)
            .with_quarantine(),
    );
    let reg0 = smr.register(0);
    let hot = node(&*smr, 0, 7);
    let decoy = node(&*smr, 0, 8);
    let src = Arc::new(AtomicPtr::new(hot));
    let decoy_src = Arc::new(AtomicPtr::new(decoy));
    let hold = Arc::new(AtomicBool::new(true));
    let (held_tx, held_rx) = channel();
    let (ended_tx, ended_rx) = channel();
    let (exit_tx, exit_rx) = channel::<()>();
    let reader = std::thread::spawn({
        let (smr, src, decoy_src, hold) = (
            Arc::clone(&smr),
            Arc::clone(&src),
            Arc::clone(&decoy_src),
            Arc::clone(&hold),
        );
        move || {
            let reg1 = smr.register(1);
            let op = OpGuard::enter(&*smr, 1);
            let row = smr.row(1);
            smr.protect_in(&row, 0, &decoy_src).unwrap();
            let p = smr.protect_in(&row, 1, &src).unwrap();
            held_tx.send(()).unwrap();
            // Spin, not block: pings must land in a running thread exactly
            // as they do mid-traversal.
            while hold.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            smr.check_live(p);
            // SAFETY: `p` is protected until `op` drops.
            assert_eq!(
                unsafe { (*p).v },
                7,
                "node alive under the row's reservation"
            );
            drop(op);
            ended_tx.send(()).unwrap();
            // Stay registered until the reclaimer is done, so its passes
            // see a quiescent participant rather than a departed one.
            exit_rx.recv().unwrap();
            drop(reg1);
        }
    });
    held_rx.recv().unwrap();
    src.store(core::ptr::null_mut(), Ordering::SeqCst);
    smr.begin_write(0, &[]).unwrap();
    // SAFETY: unlinked above, retired once, inside a write bracket.
    unsafe { retire_node(&*smr, 0, hot) };
    smr.end_write(0);
    smr.flush(0);
    assert_eq!(
        smr.stats().snapshot().unreclaimed_nodes(),
        1,
        "{}: the row-held node survives the flush",
        S::NAME
    );
    hold.store(false, Ordering::Release);
    ended_rx.recv().unwrap();
    // A fault plan may drop the pass's ping, leaving the idle reader
    // suspect with its private words kept. The next pass pings a suspect
    // even when it is idle, but a plan can drop that re-ping too, so only
    // the reader's deregistration is sure to publish. Without faults one
    // flush must free the node while the reader is still registered.
    if !cfg!(feature = "fault-injection") {
        smr.flush(0);
        assert_eq!(
            smr.stats().snapshot().unreclaimed_nodes(),
            0,
            "{}: freed once the reader's operation ended",
            S::NAME
        );
    }
    exit_tx.send(()).unwrap();
    reader.join().expect("reader saw its held node freed");
    decoy_src.store(core::ptr::null_mut(), Ordering::SeqCst);
    smr.begin_write(0, &[]).unwrap();
    // SAFETY: unlinked above, retired once, inside a write bracket.
    unsafe { retire_node(&*smr, 0, decoy) };
    smr.end_write(0);
    smr.flush(0);
    assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0, "{}", S::NAME);
    drop(reg0);
}

macro_rules! held_through_a_row {
    ($($name:ident : $scheme:ty),+ $(,)?) => {
        mod held_through_a_row {
            use super::*;
            $(
                mod $name {
                    use super::*;
                    #[test]
                    fn futex() {
                        held_through_a_row::<$scheme>(PublishMode::Futex);
                    }
                    #[test]
                    fn membarrier() {
                        held_through_a_row::<$scheme>(PublishMode::Membarrier);
                    }
                }
            )+
        }
    };
}

held_through_a_row! {
    hp: HazardPtr,
    hp_asym: HazardPtrAsym,
    he: HazardEra,
    hp_pop: HazardPtrPop,
    he_pop: HazardEraPop,
    epoch_pop: EpochPop,
}

/// The NM-tree reserves in six slots; a four-slot domain would leave two
/// of them where no pass looks.
#[test]
#[should_panic(expected = "NmTree needs 6 hazard slots")]
fn nm_tree_refuses_a_domain_with_too_few_slots() {
    assert_eq!(nm_tree::SLOTS_REQUIRED, 6);
    let smr = HazardPtrPop::new(SmrConfig::for_tests(1).with_slots(4));
    let _ = NmTree::new(smr);
}

/// Past the slots a domain was built with, a row has no word to reserve
/// in — the read panics rather than reserving where no pass scans.
#[test]
#[should_panic(expected = "index out of bounds")]
fn a_slot_past_the_row_panics() {
    let smr = HazardPtrPop::new(SmrConfig::for_tests(1).with_slots(4));
    let _reg = smr.register(0);
    let _op = OpGuard::enter(&*smr, 0);
    let link = AtomicPtr::new(core::ptr::null_mut::<N>());
    let _ = smr.protect_in(&smr.row(0), 4, &link);
}
