//! The sealed-block lifecycle, end to end, for every reclamation scheme:
//! fill → seal → orphan (a thread dies with pinned garbage) → adopt /
//! steal (block-granular, extrema intact) → sweep.
//!
//! Two invariant families are pinned down (ISSUE 4):
//!
//! * **Node conservation** — every allocated node is eventually freed,
//!   still live, or (for NR) deliberately leaked: nothing is lost across
//!   the orphan detour, and nothing is double-counted
//!   (`retired == allocated`, `orphans_adopted + orphans_stolen` never
//!   exceeds what was parked).
//! * **Whole-block accounting** — once the pin clears, the drain sweeps
//!   free the parked blocks *whole* (`blocks_freed_whole` advances): the
//!   blocks arrived with their summaries, so the range test decides them
//!   without touching a record — the property that makes block-granular
//!   orphan parking worth having.

use std::sync::atomic::AtomicPtr;
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
    /// Frees everything once the pin clears; the pinned remainder travels
    /// through the domain orphan list.
    ReclaimsViaOrphans,
    /// Frees everything, but settles through its own channel (Hyaline's
    /// refcounted global batches) — the orphan list stays empty.
    ReclaimsNoOrphans,
    /// Leaks by design (NR).
    Leaks,
}

const FILLER: u64 = 299; // + 1 pinned hot node = 300 retires

fn lifecycle<S: Smr>(expect: Expect) {
    let smr = S::new(SmrConfig::for_tests(3).with_reclaim_freq(1 << 16));

    // The thief: registered *before* any orphan exists, so nothing is
    // handed to it at registration — anything it later reclaims from the
    // orphan list was stolen by a sweep.
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
    // unsealed), reclaims what it can, and parks the pinned remainder on
    // the orphan list as whole sealed blocks.
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
        Expect::ReclaimsViaOrphans => assert!(
            s.unreclaimed_nodes() >= 1,
            "the pinned node must survive thread 0's death: {s:?}"
        ),
        Expect::ReclaimsNoOrphans => {}
        Expect::Leaks => {
            assert_eq!(s.freed_nodes, 0, "NR never frees");
        }
    }

    // Baseline before the pin clears: everything freed from here on —
    // the parked remainder — must go through the whole-block fast path.
    let freed_whole_before = s.blocks_freed_whole;

    // Release the pin; drain through adoption (a fresh registration) and
    // reclaimer-side stealing (sweeps — the pinner's own unregister flush
    // may already steal the chunk).
    release_tx.send(()).unwrap();
    pinner.join().unwrap();

    let adopter = smr.register(0);
    let mut passes = 0;
    while smr.stats().snapshot().unreclaimed_nodes() > 0 && passes < 32 {
        smr.flush(0);
        smr.flush(2);
        passes += 1;
    }
    drop(adopter);
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
    match expect {
        Expect::ReclaimsViaOrphans => {
            assert!(
                s.orphans_adopted + s.orphans_stolen >= 1,
                "the pinned remainder must travel through the orphan list: {s:?}"
            );
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
        Expect::ReclaimsNoOrphans => {
            assert_eq!(
                s.orphans_adopted + s.orphans_stolen,
                0,
                "Hyaline settles through refcounted batches, not orphans"
            );
        }
        Expect::Leaks => {
            assert_eq!(s.orphans_adopted + s.orphans_stolen, 0);
        }
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
    // Drain the orphaned lists so the test conserves every node.
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
    ebr: Ebr => Expect::ReclaimsViaOrphans,
    ibr: Ibr => Expect::ReclaimsViaOrphans,
    hp: HazardPtr => Expect::ReclaimsViaOrphans,
    hp_asym: HazardPtrAsym => Expect::ReclaimsViaOrphans,
    he: HazardEra => Expect::ReclaimsViaOrphans,
    nbr_plus: NbrPlus => Expect::ReclaimsViaOrphans,
    hazard_ptr_pop: HazardPtrPop => Expect::ReclaimsViaOrphans,
    hazard_era_pop: HazardEraPop => Expect::ReclaimsViaOrphans,
    epoch_pop: EpochPop => Expect::ReclaimsViaOrphans,
    hyaline: Hyaline => Expect::ReclaimsNoOrphans,
    vbr: Vbr => Expect::ReclaimsViaOrphans,
}
