//! The sealed-block lifecycle, end to end, for every reclamation scheme:
//! fill → seal → retire pool (a thread leaves with pinned garbage) →
//! another thread's pass takes it (block-granular, extrema intact) →
//! sweep.
//!
//! Three invariant families are pinned down:
//!
//! * **Node conservation** — every allocated node is eventually freed,
//!   still live, or (for NR) deliberately leaked: nothing is lost on the
//!   way through the pool, and nothing is double-counted
//!   (`retired == allocated`).
//! * **Cross-thread hand-off** — the pinned remainder of a thread that
//!   left is freed by a thread that never retired a node: the pool (or
//!   Hyaline's refcounted batches) hands garbage across threads.
//! * **Whole-block accounting** — once the pin clears, the drain sweeps
//!   free the pooled blocks *whole* (`blocks_freed_whole` advances): the
//!   blocks arrived with their summaries, so the range test decides them
//!   without touching a record — the property that makes block-granular
//!   pooling worth having.

use std::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use pop::smr::{
    alloc_node, as_header, protect_infallible, retire_node, Ebr, EpochPop, HasHeader, HazardEra,
    HazardEraPop, HazardPtr, HazardPtrAsym, HazardPtrPop, Header, Hyaline, Ibr, NbrPlus, NoReclaim,
    Smr, SmrConfig, Vbr,
};

#[repr(C)]
struct Node {
    hdr: Header,
    v: u64,
}
unsafe impl HasHeader for Node {}

fn alloc<S: Smr>(smr: &S, tid: usize, v: u64) -> *mut Node {
    alloc_node(
        smr,
        tid,
        Node {
            hdr: Header::new(smr.current_era(), core::mem::size_of::<Node>()),
            v,
        },
    )
}

/// What the scheme is expected to do with garbage a dead thread left
/// behind.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// Frees everything once the pin clears; the pinned remainder waits
    /// in the retire pool and a later pass sweeps it.
    ReclaimsViaPool,
    /// Frees everything, but settles through its own channel (Hyaline's
    /// refcounted global batches), not a sweep.
    ReclaimsViaBatches,
    /// Leaks by design (NR).
    Leaks,
}

const FILLER: u64 = 299; // + 1 pinned hot node = 300 retires

fn lifecycle<S: Smr>(expect: Expect) {
    let smr = S::new(SmrConfig::for_tests(3).with_reclaim_freq(1 << 16));

    // The thief: retires nothing, so anything it reclaims was handed to
    // it across threads.
    let thief = smr.register(2);

    // The pinned node, shared with the pinner thread.
    let reg0 = smr.register(0);
    let hot = alloc(&*smr, 0, u64::MAX);
    let src = Arc::new(AtomicPtr::new(hot));

    // The pinner: holds `hot` across thread 0's death. `protect` pins it
    // for reservation-based schemes, the open op bracket pins for
    // epoch-based ones, and the `begin_write` reservation pins for NBR.
    let (ready_tx, ready_rx) = std::sync::mpsc::channel::<()>();
    let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
    let pinner = std::thread::spawn({
        let smr = Arc::clone(&smr);
        let src = Arc::clone(&src);
        move || {
            let reg1 = smr.register(1);
            loop {
                smr.begin_op(1);
                let p = protect_infallible(&*smr, 1, 0, &src);
                if smr.begin_write(1, &[as_header(p)]).is_ok() {
                    break;
                }
                smr.end_op(1); // raced a neutralization: restart
            }
            ready_tx.send(()).unwrap();
            release_rx.recv().unwrap();
            smr.end_write(1);
            smr.end_op(1);
            drop(reg1);
        }
    });
    ready_rx.recv().unwrap();

    // Fill: thread 0 retires the hot node plus filler, then dies. Its
    // unregister seals every partial fill bin (nothing may stay
    // unsealed), reclaims what it can, and leaves the pinned remainder in
    // the retire pool as whole sealed blocks.
    smr.begin_op(0);
    smr.begin_write(0, &[])
        .expect("no restart: nothing pings tid 0");
    unsafe { retire_node(&*smr, 0, hot) };
    for i in 0..FILLER {
        let p = alloc(&*smr, 0, i);
        unsafe { retire_node(&*smr, 0, p) };
    }
    smr.end_write(0);
    smr.end_op(0);
    drop(reg0);

    let total = FILLER + 1;
    let s = smr.stats().snapshot();
    assert_eq!(s.allocated_nodes, total);
    assert_eq!(
        s.retired_nodes, total,
        "unregister must seal every partial bin — no node parked unsealed"
    );
    match expect {
        Expect::ReclaimsViaPool => assert!(
            s.unreclaimed_nodes() >= 1,
            "the pinned node must survive thread 0's death: {s:?}"
        ),
        Expect::ReclaimsViaBatches => {}
        Expect::Leaks => {
            assert_eq!(s.freed_nodes, 0, "NR never frees");
        }
    }
    let freed_by_zero = smr.stats().shard(0).freed_nodes.load(Ordering::Relaxed);

    // Baseline before the pin clears: everything freed from here on —
    // the pooled remainder — must go through the whole-block fast path.
    let freed_whole_before = s.blocks_freed_whole;

    // Release the pin; drain through the thief's passes (the pinner's own
    // unregister flush may already take the pooled remainder).
    release_tx.send(()).unwrap();
    pinner.join().unwrap();

    let mut passes = 0;
    while smr.stats().snapshot().unreclaimed_nodes() > 0 && passes < 32 {
        smr.flush(2);
        passes += 1;
    }
    drop(thief);

    let s = smr.stats().snapshot();
    assert_eq!(s.retired_nodes, total, "nothing is ever re-counted");
    match expect {
        Expect::Leaks => {
            assert_eq!(s.freed_nodes, 0);
            assert_eq!(
                s.unreclaimed_nodes(),
                total,
                "conservation: allocated = leaked for NR"
            );
        }
        _ => {
            assert_eq!(
                s.freed_nodes, total,
                "conservation: allocated = freed once the pin cleared \
                 (drained in {passes} passes): {s:?}"
            );
            assert_eq!(s.unreclaimed_nodes(), 0);
        }
    }
    // Slab-granular conservation (PR 10): every node of this test fits a
    // slab class, so the allocation side must be fully slab-backed — and
    // reclamation must hand the slots back (the per-node frees above
    // already balanced `allocated == freed`; the slab bit guarantees they
    // went to their slab, not the global allocator).
    assert_eq!(
        s.slab_allocs, total,
        "every allocation takes the slab path: {s:?}"
    );
    if expect != Expect::Leaks {
        assert!(
            s.freed_nodes > freed_by_zero,
            "a thread that never retired must free the pinned remainder: {s:?}"
        );
    }
    match expect {
        Expect::ReclaimsViaPool => {
            assert!(
                s.blocks_freed_whole > freed_whole_before,
                "parked blocks must be freed whole from their surviving \
                 summaries (range-test hit), not record by record: {s:?}"
            );
            // One thread's bump fills stay confined to single slabs, so
            // whole-block frees must settle against their slab in one
            // batched range test — the owned-arena fast path.
            assert!(
                s.slab_frees_whole >= 1,
                "slab-backed blocks freed whole must settle against \
                 their slab: {s:?}"
            );
        }
        Expect::ReclaimsViaBatches | Expect::Leaks => {}
    }
}

/// **Interleaved multi-thread fills** still seal blocks that settle whole
/// against their slab. Each thread
/// bump-allocates from its own active slab, so concurrent allocation never
/// perturbs one thread's address order, and the slab-routed fill bins keep
/// every block inside one slab: at least 95 % of the blocks freed whole
/// must settle with one range test (the only legal misses are blocks that
/// straddle two slabs sharing a bin).
#[test]
fn slab_fills_seal_monotone_blocks_across_threads() {
    const THREADS: usize = 3;
    const PER_THREAD: u64 = 3_000;
    let smr = Ebr::new(SmrConfig::for_tests(THREADS + 1).with_reclaim_freq(1 << 20));
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let smr = Arc::clone(&smr);
            std::thread::spawn(move || {
                let reg = smr.register(tid);
                for i in 0..PER_THREAD {
                    let p = alloc(&*smr, tid, i);
                    unsafe { retire_node(&*smr, tid, p) };
                }
                drop(reg); // seals every partial fill bin
            })
        })
        .collect();
    for h in handles {
        h.join().expect("fill worker panicked");
    }
    // Drain the pool so the test conserves every node.
    let reg = smr.register(THREADS);
    let mut passes = 0;
    while smr.stats().snapshot().unreclaimed_nodes() > 0 && passes < 64 {
        smr.flush(THREADS);
        passes += 1;
    }
    let s = smr.stats().snapshot();
    assert_eq!(s.unreclaimed_nodes(), 0, "drain within {passes} passes");
    assert!(
        s.blocks_freed_whole > 0,
        "fills must free blocks whole: {s:?}"
    );
    let share = s.slab_frees_whole as f64 / s.blocks_freed_whole as f64;
    assert!(
        share >= 0.95,
        "whole-slab settle share {share:.3} below the owned-arena floor \
         ({}/{} blocks): {s:?}",
        s.slab_frees_whole,
        s.blocks_freed_whole
    );
    drop(reg);
}

/// VBR's sweep is the epoch engine's: a block that straddles the floor
/// frees the members retired before it and keeps only the rest, instead of
/// staying whole until every member clears.
#[test]
fn vbr_frees_the_pre_floor_members_of_a_straddling_block() {
    // One 32-slot fill bin holds all ten retires (pinned so the unbatched
    // CI legs keep the block shape); a huge `reclaim_freq` leaves every
    // pass to the explicit flushes.
    let smr = Vbr::new(
        SmrConfig::for_tests(3)
            .with_reclaim_freq(1 << 20)
            .with_retire_batch(32),
    );
    let regs: Vec<_> = (0..3).map(|tid| smr.register(tid)).collect();
    let retire_five = || {
        for i in 0..5 {
            let p = alloc(&*smr, 0, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
    };
    retire_five(); // retired at the first version
    smr.flush(1); // a pass: bumps the version
    smr.begin_op(2); // the reader's floor: the bumped version
    retire_five(); // same fill bin, retired at the floor
    smr.flush(0); // seals one block straddling the floor, then sweeps it
    let s = smr.stats().snapshot();
    assert_eq!(s.retired_nodes, 10);
    assert_eq!(
        s.freed_nodes, 5,
        "the five members retired before the floor are freed: {s:?}"
    );
    smr.end_op(2);
    smr.flush(0);
    assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
    drop(regs);
}

macro_rules! lifecycle_tests {
    ($($name:ident : $scheme:ty => $expect:expr),+ $(,)?) => {
        $(
            #[test]
            fn $name() {
                lifecycle::<$scheme>($expect);
            }
        )+
    };
}

lifecycle_tests! {
    nr: NoReclaim => Expect::Leaks,
    ebr: Ebr => Expect::ReclaimsViaPool,
    ibr: Ibr => Expect::ReclaimsViaPool,
    hp: HazardPtr => Expect::ReclaimsViaPool,
    hp_asym: HazardPtrAsym => Expect::ReclaimsViaPool,
    he: HazardEra => Expect::ReclaimsViaPool,
    nbr_plus: NbrPlus => Expect::ReclaimsViaPool,
    hazard_ptr_pop: HazardPtrPop => Expect::ReclaimsViaPool,
    hazard_era_pop: HazardEraPop => Expect::ReclaimsViaPool,
    epoch_pop: EpochPop => Expect::ReclaimsViaPool,
    hyaline: Hyaline => Expect::ReclaimsViaBatches,
    vbr: Vbr => Expect::ReclaimsViaPool,
}
