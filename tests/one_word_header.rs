//! ISSUE 25: the node header is one word, and reclaimers read their retire
//! records, never the retired nodes.
//!
//! * **Layout guard** — `Header` is 8 bytes, so the Harris-Michael list
//!   node (and with it the hash map's) is 32 bytes and two of them bump
//!   into adjacent 32-byte slab slots; the queue and stack nodes fit the
//!   same class. A header field added later fails here instead of silently
//!   moving the list back up to the 64-byte class.
//! * **Record-only sweeps** — every retired node's bytes, header included,
//!   are overwritten with `0xA5` before the flush. A sweep that still read
//!   eras or the slab bit from the node would keep or free a different set
//!   than an untouched twin run does.

use core::mem::size_of;
use std::sync::atomic::{AtomicPtr, Ordering};

use pop::ds::{hml, ms_queue::QueueNode, treiber_stack::StackNode};
use pop::smr::{
    alloc_node, free_node_raw, protect_infallible, retire_node, Ebr, EpochPop, HasHeader,
    HazardEra, HazardEraPop, HazardPtrPop, Header, Ibr, Smr, SmrConfig, RETIRE_BATCH_CAP,
};

#[test]
fn header_is_one_word_and_list_nodes_take_the_32_byte_class() {
    assert_eq!(size_of::<Header>(), 8);
    assert_eq!(size_of::<hml::Node>(), 32);
    assert!(
        size_of::<QueueNode>() <= 32,
        "queue node left the 32-byte class"
    );
    assert!(
        size_of::<StackNode>() <= 32,
        "stack node left the 32-byte class"
    );

    // A fresh thread starts a fresh bump run, so its first two list nodes
    // are slots 0 and 1 of one slab.
    std::thread::spawn(|| {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let head = AtomicPtr::new(core::ptr::null_mut());
        smr.begin_op(0);
        let a = hml::insert_at(&*smr, 0, &head, 2, 2).expect("single thread: no restart");
        let b = hml::insert_at(&*smr, 0, &head, 1, 1).expect("single thread: no restart");
        smr.end_op(0);
        assert_eq!(
            b as usize - a as usize,
            32,
            "consecutive list nodes must sit 32 bytes apart"
        );
        smr.begin_op(0);
        for key in [1, 2] {
            assert_eq!(hml::remove_at(&*smr, 0, &head, key), Ok(true));
        }
        smr.end_op(0);
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    })
    .join()
    .unwrap();
}

/// Slab-backed and free of drop glue, so freeing one never reads its bytes.
#[repr(C)]
struct Plain {
    hdr: Header,
    payload: [u64; 3],
}
// SAFETY: repr(C) with the header first.
unsafe impl HasHeader for Plain {}

/// Nodes retired per phase: three full retire blocks.
const PER_PHASE: u64 = 3 * RETIRE_BATCH_CAP as u64;

fn alloc<S: Smr>(smr: &S) -> *mut Plain {
    alloc_node(
        smr,
        0,
        Plain {
            hdr: Header::new(smr.current_era(), size_of::<Plain>()),
            payload: [7; 3],
        },
    )
}

/// Retires a phase's worth of fresh nodes, scribbles them if asked, then
/// flushes. Returns the domain's freed count after the flush.
fn retire_phase<S: Smr>(smr: &S, scribble: bool) -> u64 {
    let nodes: Vec<*mut Plain> = (0..PER_PHASE).map(|_| alloc(smr)).collect();
    for &p in &nodes {
        // SAFETY: private, never published, retired once.
        unsafe { retire_node(smr, 0, p) };
    }
    if scribble {
        for &p in &nodes {
            // SAFETY: nothing ran a pass since these were retired (the
            // threshold is out of reach), so every node is still allocated.
            unsafe { core::ptr::write_bytes(p as *mut u8, 0xA5, size_of::<Plain>()) };
        }
    }
    smr.flush(0);
    smr.stats().snapshot().freed_nodes
}

/// One run: two phases, each inside an operation that holds a reservation
/// (on a node that is never retired), then a flush outside any operation.
/// The second operation starts after the first phase's flush advanced the
/// era, so its flush may free what the first one had to keep. Returns the
/// freed count after each of the three flushes.
fn run<S: Smr>(scribble: bool) -> [u64; 3] {
    let smr = S::new(SmrConfig::for_tests(1).with_reclaim_freq(1 << 16));
    let reg = smr.register(0);
    let anchor = alloc(&*smr);
    let src = AtomicPtr::new(anchor);

    let mut freed = [0; 3];
    for f in &mut freed[..2] {
        smr.begin_op(0);
        let _ = protect_infallible(&*smr, 0, 0, &src);
        *f = retire_phase(&*smr, scribble);
        smr.end_op(0);
    }
    smr.flush(0);
    freed[2] = smr.stats().snapshot().freed_nodes;

    let s = smr.stats().snapshot();
    assert!(
        s.freed_nodes <= s.retired_nodes && s.retired_nodes <= s.allocated_nodes,
        "{}: freed ≤ retired ≤ allocated: {s:?}",
        S::NAME
    );
    assert_eq!(s.retired_nodes, 2 * PER_PHASE, "{}", S::NAME);
    drop(reg);
    src.store(core::ptr::null_mut(), Ordering::Relaxed);
    // SAFETY: never published beyond `src`, never retired.
    unsafe { free_node_raw(anchor) };
    freed
}

fn sweeps_are_record_only<S: Smr>() {
    let twin = run::<S>(false);
    let scribbled = run::<S>(true);
    assert_eq!(
        scribbled,
        twin,
        "{}: freed after each flush, node bytes overwritten vs untouched",
        S::NAME
    );
    assert_eq!(
        twin[2],
        2 * PER_PHASE,
        "{}: outside an op all is freed",
        S::NAME
    );
}

#[test]
fn record_only_sweeps_hazard_ptr_pop() {
    sweeps_are_record_only::<HazardPtrPop>();
}

#[test]
fn record_only_sweeps_hazard_era_pop() {
    sweeps_are_record_only::<HazardEraPop>();
}

#[test]
fn record_only_sweeps_hazard_era() {
    sweeps_are_record_only::<HazardEra>();
}

#[test]
fn record_only_sweeps_ebr() {
    sweeps_are_record_only::<Ebr>();
}

#[test]
fn record_only_sweeps_epoch_pop() {
    sweeps_are_record_only::<EpochPop>();
}

#[test]
fn record_only_sweeps_ibr() {
    sweeps_are_record_only::<Ibr>();
}
