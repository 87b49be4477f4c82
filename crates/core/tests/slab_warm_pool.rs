//! The empty-slab pool's release hysteresis, checked on the process-wide
//! gauges.
//!
//! The pool, `mapped_slabs()` and `released_bytes()` belong to the process
//! and `cargo test` runs a binary's tests on parallel threads, so every
//! gauge-exact case lives in this file's single `#[test]`: its own process,
//! one thread, public API only.

// Off Linux `release_pages` releases nothing and the gauge stays at zero.
#![cfg(target_os = "linux")]

use std::collections::HashSet;

use pop_core::slab::{
    alloc_value, free_value, mapped_slabs, pool_len, release_thread_slabs, released_bytes,
    SLAB_BYTES, WARM_SLABS,
};
use pop_core::{HasHeader, Header};

/// Fills the 1 KiB size class: few slots per slab keeps the test quick.
#[repr(C)]
struct Node {
    hdr: Header,
    payload: [u64; 120],
}
// SAFETY: `hdr` is the first field of a `repr(C)` struct.
unsafe impl HasHeader for Node {}

fn node() -> *mut Node {
    alloc_value(
        Node {
            hdr: Header::new(0, core::mem::size_of::<Node>()),
            payload: [0; 120],
        },
        true,
    )
}

fn base_of(p: *mut Node) -> usize {
    p as usize & !(SLAB_BYTES - 1)
}

/// Fills `n` whole slabs and seals them; one `Vec` of nodes per slab, in
/// acquisition order.
fn fill_slabs(n: usize, slots: usize) -> Vec<Vec<*mut Node>> {
    let slabs: Vec<Vec<*mut Node>> = (0..n)
        .map(|_| (0..slots).map(|_| node()).collect())
        .collect();
    release_thread_slabs();
    for slab in &slabs {
        assert!(
            slab.iter().all(|&p| base_of(p) == base_of(slab[0])),
            "{slots} fills per slab must share a slab"
        );
    }
    slabs
}

fn free_slab(slab: Vec<*mut Node>) {
    for p in slab {
        // SAFETY: allocated by `node()`, never shared, freed once.
        unsafe { free_value(p) };
    }
}

#[test]
fn warm_slabs_recycle_without_the_kernel_and_overflow_releases_exactly() {
    // Learn the geometry from the first slab rather than restating the
    // allocator's private constants: where slots start, how big they are.
    let (p0, p1) = (node(), node());
    let first = base_of(p0);
    let slot_offset = p0 as usize - first;
    let payload_bytes = (SLAB_BYTES - slot_offset) as u64;
    let slots = (SLAB_BYTES - slot_offset) / (p1 as usize - p0 as usize);
    let rest: Vec<*mut Node> = (2..slots).map(|_| node()).collect();
    assert!(rest.iter().all(|&p| base_of(p) == first));
    release_thread_slabs();
    free_slab(vec![p0, p1]);
    free_slab(rest);
    assert_eq!(pool_len(), 1, "the emptied slab is pooled");

    // (a) A steady fill/free cycle is invisible to the kernel: the same slab
    // comes back, its bump restarted, nothing mapped and nothing released.
    let (mapped, released) = (mapped_slabs(), released_bytes());
    assert_eq!((mapped, released), (1, 0), "one slab mapped, cached warm");
    for cycle in 0..8 {
        let slab = fill_slabs(1, slots).pop().unwrap();
        assert_eq!(slab[0] as usize, first + slot_offset, "cycle {cycle}");
        assert_eq!(pool_len(), 0);
        free_slab(slab);
        assert_eq!(pool_len(), 1);
        assert_eq!((mapped_slabs(), released_bytes()), (mapped, released));
    }

    // (b) Emptying more slabs at once than the cache holds releases exactly
    // the overflow.
    const OVER: usize = 5;
    let slabs = fill_slabs(WARM_SLABS + OVER, slots);
    assert_eq!(pool_len(), 0, "the fill drained the pool before it mapped");
    assert_eq!(mapped_slabs(), (WARM_SLABS + OVER) as u64);
    let emptied: Vec<usize> = slabs.iter().map(|slab| base_of(slab[0])).collect();
    for slab in slabs {
        free_slab(slab);
    }
    assert_eq!(pool_len(), WARM_SLABS + OVER);
    assert_eq!(released_bytes() - released, OVER as u64 * payload_bytes);

    // (c) Warm slabs are reused before cold ones, most recently emptied
    // first; only then do the cold ones come back, and nothing is mapped.
    let (warm, cold) = emptied.split_at(WARM_SLABS);
    let refill = fill_slabs(WARM_SLABS + OVER, slots);
    let reused: Vec<usize> = refill.iter().map(|slab| base_of(slab[0])).collect();
    let warm_lifo: Vec<usize> = warm.iter().rev().copied().collect();
    assert_eq!(reused[..WARM_SLABS], warm_lifo[..]);
    assert_eq!(
        reused[WARM_SLABS..].iter().collect::<HashSet<_>>(),
        cold.iter().collect::<HashSet<_>>()
    );
    assert_eq!(mapped_slabs(), (WARM_SLABS + OVER) as u64);
    for slab in refill {
        free_slab(slab);
    }
    assert_eq!(
        released_bytes() - released,
        2 * OVER as u64 * payload_bytes,
        "the second overflow releases the same five slabs' worth again"
    );
}
