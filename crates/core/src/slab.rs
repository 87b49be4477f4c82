//! Owned slab arenas: lock-free fixed-size allocation whose slabs decide
//! the retire bins.
//!
//! The retire pipeline routes each retirement into a per-thread fill bin by
//! its slab (`(ptr / SLAB_BYTES) % FILL_BINS` in `base`). Nodes are
//! allocated from 64 KiB slabs ([`SLAB_BYTES`]), each slab is filled by
//! **one owner thread with a pure bump pointer**, and so a block sealed
//! from one thread's fill holds slots of a single slab, in address order
//! by construction. When a sweep frees such a block whole it settles
//! against the slab with one range test and one batched counter update (in
//! the spirit of Blelloch & Wei's constant-time fixed-size alloc/free).
//!
//! ## Slab lifecycle
//!
//! ```text
//!   map (64 KiB-aligned, pop_runtime::vm)     ┌──────────────┐
//!        │              owner bump-allocates  │    ACTIVE    │
//!        ▼            ┌──────────────────────►│ (one owner)  │
//!   ┌──────────┐      │                       └──────┬───────┘
//!   │   pool   │      │                              │ owner seals (slab
//!   │   warm ──┼─reuse┘ (warm first, LIFO,           ▼ full / thread exit)
//!   │   cold ──┼─┘       then cold)           ┌──────────────┐
//!   └──────────┘                              │    SEALED    │
//!     ▲      ▲                                │ (total set)  │
//!     │      │ warm stack full: payload pages └──────┬───────┘
//!     │      │ released (madvise DONTNEED),          │ any thread's free
//!     │      │ pooled cold                           ▼ makes freed == total
//!     │      └──────────────┐                 ┌──────────────┐
//!     │ room: pooled warm,  ├─────────────────│    EMPTY     │
//!     └─ pages untouched ───┘                 │ (CAS winner) │
//!                                             └──────────────┘
//! ```
//!
//! * **ACTIVE**: only the owner bumps `next`; frees from any thread just
//!   `fetch_add` the `freed` counter. Freed slots are *not* reused while the
//!   slab is active or sealed — reuse happens at slab granularity only, so
//!   the bump order (and hence address-monotonicity of fills) is never
//!   perturbed by free-list churn.
//! * **SEALED**: the owner published the final slot count in `total`. The
//!   free that makes `freed == total` wins a `SEALED → EMPTY` CAS — exactly
//!   one thread returns the slab to the global pool.
//! * **EMPTY** forks on how much the pool already holds. While fewer than
//!   [`WARM_SLABS`] empty slabs are cached the winner pools the slab **warm**,
//!   pages resident and no system call made; only past that does it hand the
//!   payload pages back to the OS (`madvise(MADV_DONTNEED)`, counted by
//!   [`released_bytes`]) and pool the slab **cold**.
//! * **Pool reuse** takes the most recently emptied warm slab (its lines are
//!   the likeliest to still be cached), then a cold one, then maps. Either
//!   way the bump restarts at zero: the recycled slab's fills are monotone
//!   again from the first slot.
//!
//! ## Release hysteresis
//!
//! A thread that allocates and retires at a steady rate empties a slab about
//! as often as it starts one. Releasing on every `EMPTY` therefore cost one
//! `madvise` (a TLB shootdown into every other thread) plus 15 page faults
//! per slab for memory that was wanted again at once. The warm stack is the
//! hysteresis: in steady state slabs cycle `ACTIVE → SEALED → EMPTY → warm →
//! ACTIVE` without the kernel seeing any of it, and pages go back only when
//! more slabs empty at once than the cache holds (a structure torn down, a
//! backlog drained). The price, stated once: at most `WARM_SLABS ×
//! (SLAB_BYTES − SLOT_OFFSET)` = 3.75 MiB of empty slabs stay resident per
//! process, and a stale reader of a warm slab reads the old bytes where it
//! used to read zeros. Both are inside the type-stable-memory contract, which
//! promises such a reader a mapped address and nothing about its contents.
//! [`WARM_SLABS`] is a constant, not a setting: the pool is process-wide (no
//! domain's `SmrConfig` could own it), the bound is small beside any
//! structure worth reclaiming for, and the value is not delicate — a
//! reclamation pass frees a few thousand nodes, one to nine slabs of 32- or
//! 64-byte ones, so anything from a dozen up keeps steady state out of the kernel,
//! while a teardown that empties hundreds of slabs at once still returns all
//! but 64 of them.
//!
//! The slab header lives in the slab's **first page**, which is never
//! `madvise`d — only the payload pages (`4 KiB..64 KiB`) are released — so
//! state survives release and the mapping stays valid for the process
//! lifetime (type-stable memory: a stale reader of a freed slot reads old
//! bytes or, after a release, faults in zeros; it never SIGSEGVs).
//!
//! ## Dispatch
//!
//! A slab-backed object is branded by a bit in its [`crate::header::Header`]
//! word at allocation time; every free path dispatches on that bit —
//! [`free_value`] reads it from the header, the type-erased `Retired`
//! destructor from the copy its record took at retirement — so `Box`-backed
//! nodes (oversized types, callers passing `use_slab = false` to
//! [`alloc_value`], sentinels) coexist freely with slab-backed ones in the
//! same retire lists.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::cell::Cell;
use std::sync::Mutex;

use crate::header::HasHeader;

/// Slab size in bytes — also the unit of the retire pipeline's fill-bin
/// routing (see `base`), so every slot of a slab lands in one bin.
pub const SLAB_BYTES: usize = 1 << 16;

/// The first page of every slab holds its [`SlabHeader`]; slots start here.
/// This page is never `madvise`d, so slab state survives a payload release.
const SLOT_OFFSET: usize = 4096;

/// Identifies a mapped slab (debug guard against masking a foreign pointer).
const SLAB_MAGIC: u32 = 0x51AB_A12E;

/// Slot size classes. Every reclaimable node type with
/// `size_of::<T>() <= 1024` lands in the smallest fitting class; larger
/// types fall back to `Box`. Classes are powers of two dividing
/// [`SLOT_OFFSET`], so slot addresses are class-aligned (and Rust guarantees
/// `align_of::<T>() <= size_of::<T>()` for the inhabited node types here).
const CLASSES: [usize; 6] = [32, 64, 128, 256, 512, 1024];

/// `total` sentinel while a slab is still ACTIVE (owner may still bump).
const TOTAL_OPEN: u32 = u32::MAX;

const STATE_ACTIVE: u32 = 0;
const STATE_SEALED: u32 = 1;
const STATE_EMPTY: u32 = 2;

/// Per-slab metadata, resident in the slab's first page.
#[repr(C)]
struct SlabHeader {
    magic: u32,
    /// Slot size class in bytes.
    slot_size: AtomicU32,
    /// [`STATE_ACTIVE`] → [`STATE_SEALED`] → [`STATE_EMPTY`] (then pooled).
    state: AtomicU32,
    /// Next slot index; written only by the owner thread while ACTIVE.
    next: AtomicU32,
    /// Slots freed so far; any thread, `fetch_add` only.
    freed: AtomicU32,
    /// Final slot count, [`TOTAL_OPEN`] until the owner seals.
    total: AtomicU32,
}

/// Process-wide bytes handed back to the OS via `madvise(MADV_DONTNEED)`.
static RELEASED_BYTES: AtomicU64 = AtomicU64::new(0);
/// Process-wide count of slabs ever mapped (testing/diagnostics gauge).
static MAPPED_SLABS: AtomicU64 = AtomicU64::new(0);

/// Most empty slabs the pool keeps warm (module docs, "Release hysteresis"):
/// up to this many settle without a system call and are reused without a
/// page fault; the rest release their payload pages.
pub const WARM_SLABS: usize = 64;

/// Fully-empty slabs awaiting reuse, by base address, as two stacks.
struct EmptyPool {
    /// Payload pages still resident; never more than [`WARM_SLABS`].
    warm: Vec<usize>,
    /// Payload pages released to the OS.
    cold: Vec<usize>,
}

/// A `Mutex` is fine here: it is touched once per *slab* (≥ 60 allocations
/// between touches), never on the per-slot paths, which stay lock-free.
static EMPTY_POOL: Mutex<EmptyPool> = Mutex::new(EmptyPool {
    warm: Vec::new(),
    cold: Vec::new(),
});

#[inline]
fn header_of(base: usize) -> &'static SlabHeader {
    debug_assert_eq!(base & (SLAB_BYTES - 1), 0, "not a slab base");
    // SAFETY: slab mappings are never unmapped for the process lifetime and
    // the header page is never madvise'd, so the reference stays valid.
    unsafe { &*(base as *const SlabHeader) }
}

/// Slots a slab of `class`-byte slots holds.
#[inline]
fn capacity_of(class: usize) -> u32 {
    ((SLAB_BYTES - SLOT_OFFSET) / class) as u32
}

/// Smallest class index fitting `size`, or `None` (Box fallback).
#[inline]
fn class_index(size: usize) -> Option<usize> {
    CLASSES.iter().position(|&c| size <= c)
}

/// Per-thread active slab bases, one per size class; 0 = none.
struct ActiveSlabs {
    bases: [Cell<usize>; CLASSES.len()],
}

impl Drop for ActiveSlabs {
    fn drop(&mut self) {
        // Thread exit seals this thread's actives so their slabs can reach
        // EMPTY once outstanding nodes are freed by surviving threads.
        for base in &self.bases {
            let b = base.replace(0);
            if b != 0 {
                seal_slab(b);
            }
        }
    }
}

thread_local! {
    static ACTIVE: ActiveSlabs = const {
        ActiveSlabs {
            bases: [const { Cell::new(0) }; CLASSES.len()],
        }
    };
}

/// Takes a slab for `class_idx` from the pool, or maps a fresh one.
fn acquire_slab(class_idx: usize) -> Option<usize> {
    let class = CLASSES[class_idx];
    let pooled = {
        let mut pool = EMPTY_POOL.lock().unwrap();
        pool.warm.pop().or_else(|| pool.cold.pop())
    };
    if let Some(base) = pooled {
        let hdr = header_of(base);
        // The invariant the retire pipeline depends on: a slab is only ever
        // reused after every slot handed out was freed — no retire block can
        // still reference it. Enforced unconditionally, not debug-only.
        let total = hdr.total.load(Ordering::Acquire);
        let freed = hdr.freed.load(Ordering::Acquire);
        assert!(
            hdr.state.load(Ordering::Acquire) == STATE_EMPTY && freed == total,
            "pooled slab reused while slots are outstanding ({freed}/{total})"
        );
        hdr.slot_size.store(class as u32, Ordering::Relaxed);
        hdr.next.store(0, Ordering::Relaxed);
        hdr.freed.store(0, Ordering::Relaxed);
        hdr.total.store(TOTAL_OPEN, Ordering::Relaxed);
        hdr.state.store(STATE_ACTIVE, Ordering::Release);
        return Some(base);
    }
    let base = pop_runtime::vm::aligned_map(SLAB_BYTES, SLAB_BYTES)? as usize;
    MAPPED_SLABS.fetch_add(1, Ordering::Relaxed);
    // SAFETY: freshly mapped, zeroed, exclusively owned; header page is in
    // bounds.
    unsafe {
        (base as *mut SlabHeader).write(SlabHeader {
            magic: SLAB_MAGIC,
            slot_size: AtomicU32::new(class as u32),
            state: AtomicU32::new(STATE_ACTIVE),
            next: AtomicU32::new(0),
            freed: AtomicU32::new(0),
            total: AtomicU32::new(TOTAL_OPEN),
        });
    }
    Some(base)
}

/// Publishes the final slot count and moves the slab out of ACTIVE. Called
/// by the owner (slab full, thread exit, or [`release_thread_slabs`]).
fn seal_slab(base: usize) {
    let hdr = header_of(base);
    let filled = hdr.next.load(Ordering::Relaxed);
    hdr.total.store(filled, Ordering::Release);
    hdr.state.store(STATE_SEALED, Ordering::Release);
    // The owner itself may be the last referent (everything already freed,
    // or nothing was ever allocated).
    try_settle_empty(base);
}

/// If every handed-out slot has been freed, wins the unique
/// `SEALED → EMPTY` transition and pools the slab for reuse: warm while the
/// cache has room, otherwise cold, its payload pages released to the OS.
fn try_settle_empty(base: usize) {
    let hdr = header_of(base);
    let total = hdr.total.load(Ordering::Acquire);
    if total == TOTAL_OPEN {
        return; // still ACTIVE — the owner may bump further
    }
    if hdr.freed.load(Ordering::Acquire) != total {
        return;
    }
    if hdr
        .state
        .compare_exchange(
            STATE_SEALED,
            STATE_EMPTY,
            Ordering::AcqRel,
            Ordering::Relaxed,
        )
        .is_err()
    {
        return; // another freeing thread won the settle
    }
    // Unique winner: every slot's drop happened-before (the freed RMW chain
    // synchronizes them), so the slab is reusable as it stands. This is the
    // one place that decides whether its pages also go back to the OS: not
    // while the warm stack has room — a steady allocate/retire cycle wants
    // the slab again within a pass or two.
    {
        let mut pool = EMPTY_POOL.lock().unwrap();
        if pool.warm.len() < WARM_SLABS {
            pool.warm.push(base);
            return;
        }
    }
    // More slabs are empty at once than the cache holds; this one gives its
    // payload pages back (outside the lock: it is a system call). On failure
    // (or off Linux) the slab is still perfectly reusable — we just don't
    // count released bytes.
    if pop_runtime::vm::release_pages((base + SLOT_OFFSET) as *mut u8, SLAB_BYTES - SLOT_OFFSET) {
        RELEASED_BYTES.fetch_add((SLAB_BYTES - SLOT_OFFSET) as u64, Ordering::Relaxed);
    }
    EMPTY_POOL.lock().unwrap().cold.push(base);
}

/// Bump-allocates one `class_idx` slot from the calling thread's active
/// slab, acquiring/recycling slabs as needed. `None` ⇒ fall back to `Box`
/// (mapping failed, or TLS is already torn down).
fn alloc_slot(class_idx: usize) -> Option<*mut u8> {
    ACTIVE
        .try_with(|active| {
            let cell = &active.bases[class_idx];
            loop {
                let mut base = cell.get();
                if base == 0 {
                    base = acquire_slab(class_idx)?;
                    cell.set(base);
                }
                let hdr = header_of(base);
                let class = CLASSES[class_idx];
                let next = hdr.next.load(Ordering::Relaxed);
                if next < capacity_of(class) {
                    // Owner-only bump: no RMW, no contention, and slot
                    // addresses are strictly increasing — the monotone-fill
                    // guarantee the whole module exists for.
                    hdr.next.store(next + 1, Ordering::Relaxed);
                    return Some((base + SLOT_OFFSET + next as usize * class) as *mut u8);
                }
                seal_slab(base);
                cell.set(0);
            }
        })
        .ok()
        .flatten()
}

/// Returns one slot to its slab. The last free of a sealed slab settles the
/// whole slab (pooled, warm or cold).
///
/// # Safety
///
/// `p` must be a slot pointer previously returned by [`alloc_slot`] (the
/// caller proves this via the header slab bit), freed exactly once, with no
/// remaining accesses to the slot's contents.
pub(crate) unsafe fn free_slot(p: *mut u8) {
    let base = (p as usize) & !(SLAB_BYTES - 1);
    let hdr = header_of(base);
    debug_assert_eq!(hdr.magic, SLAB_MAGIC, "freeing a non-slab pointer");
    // AcqRel: the release half publishes this slot's drop to the settle
    // winner; the acquire half joins the RMW chain so the winner's
    // `freed == total` read sees every predecessor.
    hdr.freed.fetch_add(1, Ordering::AcqRel);
    try_settle_empty(base);
}

/// Returns `n` slots of the slab at `base` in **one** accounting step —
/// the whole-slab settlement fast path: a wholly-freed retire block
/// confined to one slab replaces `n` per-slot RMWs and settle probes with
/// a single `fetch_add` and one probe.
///
/// # Safety
///
/// `base` must be the slab-aligned base of a mapped slab, the `n` slots
/// must each have been returned by [`alloc_slot`] from that slab, their
/// payloads already dropped, each counted exactly once, with no remaining
/// accesses to their contents.
pub(crate) unsafe fn free_slots_batch(base: usize, n: u32) {
    let hdr = header_of(base);
    debug_assert_eq!(hdr.magic, SLAB_MAGIC, "batch-freeing a non-slab base");
    // AcqRel as in `free_slot`: one RMW publishes all `n` drops.
    hdr.freed.fetch_add(n, Ordering::AcqRel);
    try_settle_empty(base);
}

/// Allocates `value`, slab-backed when `use_slab` is set and the type fits a
/// size class, `Box`-backed otherwise. The returned object's header carries
/// the slab bit iff the slab path was taken ([`Header::is_slab_backed`]);
/// free through [`free_value`] or the retire pipeline, never `Box::from_raw`
/// directly.
///
/// [`Header::is_slab_backed`]: crate::header::Header::is_slab_backed
pub fn alloc_value<T: HasHeader>(value: T, use_slab: bool) -> *mut T {
    if use_slab {
        if let Some(raw) = class_index(core::mem::size_of::<T>()).and_then(alloc_slot) {
            let p = raw as *mut T;
            // SAFETY: `raw` is a fresh, exclusively-owned, class-aligned
            // slot of at least `size_of::<T>()` bytes (class fit checked
            // above; `align_of::<T>() <= size_of::<T>() <= class`).
            unsafe {
                core::ptr::write(p, value);
                (*p).header().mark_slab_backed();
            }
            return p;
        }
    }
    Box::into_raw(Box::new(value))
}

/// Frees an object allocated by [`alloc_value`], dispatching on the
/// header's slab bit.
///
/// # Safety
///
/// `p` must come from [`alloc_value`] (or `Box::into_raw` of a `T`), be
/// unreachable by every other thread, and not be freed again.
pub unsafe fn free_value<T: HasHeader>(p: *mut T) {
    // SAFETY: `p` is live per the caller's contract.
    if unsafe { (*p).header().is_slab_backed() } {
        // SAFETY: slab bit ⇒ slot pointer; drop then return the slot.
        unsafe {
            core::ptr::drop_in_place(p);
            free_slot(p as *mut u8);
        }
    } else {
        // SAFETY: slab bit clear ⇒ the allocation came from `Box`.
        unsafe { drop(Box::from_raw(p)) }
    }
}

/// Seals the calling thread's active slabs so they can settle once their
/// outstanding nodes are freed. Benchmarks and tests call this before
/// asserting drain (only a *sealed* slab can reach the pool); thread exit
/// does it automatically. The next allocation simply starts a
/// fresh slab.
pub fn release_thread_slabs() {
    let _ = ACTIVE.try_with(|active| {
        for cell in &active.bases {
            let base = cell.replace(0);
            if base != 0 {
                seal_slab(base);
            }
        }
    });
}

/// Process-wide bytes actually returned to the OS: the payload pages of
/// slabs that emptied while the warm stack was full. Reported in stats
/// snapshots as `slab_released_bytes`.
pub fn released_bytes() -> u64 {
    RELEASED_BYTES.load(Ordering::Relaxed)
}

/// Number of fully-empty slabs currently pooled for reuse, warm and cold
/// (testing hook).
pub fn pool_len() -> usize {
    let pool = EMPTY_POOL.lock().unwrap();
    pool.warm.len() + pool.cold.len()
}

/// Total slabs ever mapped from the OS (testing hook).
pub fn mapped_slabs() -> u64 {
    MAPPED_SLABS.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::Header;
    use proptest::Strategy as _;
    use std::collections::HashSet;

    #[repr(C)]
    struct Node {
        hdr: Header,
        payload: [u64; 5],
    }
    unsafe impl HasHeader for Node {}

    /// The pool and released-bytes gauge are process-global, so every test
    /// here that allocates takes this lock: a parallel test could otherwise
    /// reacquire a slab between "we settled it" and "we assert it
    /// settled".
    static TEST_SERIAL: Mutex<()> = Mutex::new(());

    fn serial() -> std::sync::MutexGuard<'static, ()> {
        TEST_SERIAL.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn node(tag: u64) -> Node {
        Node {
            hdr: Header::new(tag, core::mem::size_of::<Node>()),
            payload: [tag; 5],
        }
    }

    #[test]
    fn class_fitting_is_tight_and_oversize_falls_back() {
        assert_eq!(class_index(1), Some(0));
        assert_eq!(class_index(32), Some(0));
        assert_eq!(class_index(33), Some(1));
        assert_eq!(class_index(1024), Some(5));
        assert_eq!(class_index(1025), None);
    }

    #[test]
    fn slab_alloc_brands_header_and_box_does_not() {
        let _guard = serial();
        let s = alloc_value(node(1), true);
        let b = alloc_value(node(2), false);
        unsafe {
            assert!((*s).hdr.is_slab_backed());
            assert!(!(*b).hdr.is_slab_backed());
            assert_eq!((*s).payload, [1; 5]);
            free_value(s);
            free_value(b);
        }
        release_thread_slabs();
    }

    #[test]
    fn poison_preserves_slab_bit() {
        let _guard = serial();
        let s = alloc_value(node(3), true);
        unsafe {
            (*s).hdr.poison();
            assert!((*s).hdr.is_poisoned());
            assert!(
                (*s).hdr.is_slab_backed(),
                "quarantined slab slots must still free into their slab"
            );
            assert_eq!((*s).hdr.birth_era(), 3);
            free_value(s);
        }
        release_thread_slabs();
    }

    #[test]
    fn sequential_fill_is_address_monotone_by_construction() {
        let _guard = serial();
        let mut last = 0usize;
        let mut ptrs = Vec::new();
        let mut breaks = 0;
        for i in 0..3 * capacity_of(64) as u64 {
            let p = alloc_value(node(i), true) as usize;
            if last != 0 && p <= last {
                breaks += 1; // only legal at a slab boundary
            }
            last = p;
            ptrs.push(p);
        }
        assert!(breaks <= 3, "bump fills must be monotone within a slab");
        for p in ptrs {
            unsafe { free_value(p as *mut Node) };
        }
        release_thread_slabs();
    }

    #[test]
    fn full_cycle_pools_and_recycles_the_slab() {
        let _guard = serial();
        let cap = capacity_of(64) as usize;

        // Fill exactly one slab, then free everything.
        let ptrs: Vec<*mut Node> = (0..cap)
            .map(|i| alloc_value(node(i as u64), true))
            .collect();
        let base = ptrs[0] as usize & !(SLAB_BYTES - 1);
        assert!(
            ptrs.iter()
                .all(|&p| (p as usize) & !(SLAB_BYTES - 1) == base),
            "one slab's worth of fills must share a slab"
        );
        release_thread_slabs(); // seal so the last free can settle
        for p in ptrs {
            unsafe { free_value(p) };
        }
        assert_eq!(header_of(base).state.load(Ordering::Acquire), STATE_EMPTY);
        {
            // Whether it went warm or cold depends on what the rest of the
            // test binary has pooled; that it is pooled does not.
            let pool = EMPTY_POOL.lock().unwrap();
            assert!(pool.warm.len() <= WARM_SLABS);
            assert!(
                pool.warm.contains(&base) || pool.cold.contains(&base),
                "a settled slab is pooled"
            );
        }

        // The next fill may reuse the pooled slab — and must restart its
        // bump at slot zero if it does.
        let p = alloc_value(node(99), true);
        let reused_base = p as usize & !(SLAB_BYTES - 1);
        if reused_base == base {
            assert_eq!(p as usize, base + SLOT_OFFSET, "recycled bump restarts");
        }
        unsafe { free_value(p) };
        release_thread_slabs();
    }

    #[test]
    fn sealing_an_untouched_slab_settles_immediately() {
        let _guard = serial();
        let p = alloc_value(node(7), true);
        unsafe { free_value(p) };
        // The active slab has zero outstanding slots; sealing must settle
        // it without waiting for any further free.
        let base = p as usize & !(SLAB_BYTES - 1);
        release_thread_slabs();
        assert_eq!(header_of(base).state.load(Ordering::Acquire), STATE_EMPTY);
    }

    /// One step of the interleaving property test.
    #[derive(Clone, Copy, Debug)]
    enum SlabOp {
        /// Allocate a node tagged with the step index.
        Alloc,
        /// Free the live allocation at this (modular) position.
        Free(usize),
        /// Seal the thread's active slabs mid-stream.
        Seal,
    }

    fn check_slab_ops(ops: &[SlabOp]) {
        let _guard = serial();
        let mut live: Vec<*mut Node> = Vec::new();
        // Every address currently handed out — a second hand-out of a live
        // address is the double-allocation bug this test exists to catch.
        let mut outstanding: HashSet<usize> = HashSet::new();
        for (i, &op) in ops.iter().enumerate() {
            match op {
                SlabOp::Alloc => {
                    let p = alloc_value(node(i as u64), true);
                    assert!(
                        outstanding.insert(p as usize),
                        "slot {p:p} handed out while still live"
                    );
                    unsafe {
                        assert_eq!((*p).payload, [i as u64; 5], "slot contents intact");
                    }
                    live.push(p);
                }
                SlabOp::Free(at) => {
                    if live.is_empty() {
                        continue;
                    }
                    let p = live.swap_remove(at % live.len());
                    assert!(outstanding.remove(&(p as usize)));
                    unsafe { free_value(p) };
                }
                SlabOp::Seal => release_thread_slabs(),
            }
            // Free-list integrity: every live node still reads back the tag
            // it was written with (no slot was recycled under us).
            for &p in &live {
                let tag = unsafe { (*p).payload[0] };
                assert_eq!(unsafe { (*p).payload }, [tag; 5]);
            }
        }
        for p in live {
            unsafe { free_value(p) };
        }
        release_thread_slabs();
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(64))]

        /// ISSUE 10 satellite: arbitrary alloc/free/seal interleavings
        /// never double-hand-out a slot and keep live contents intact.
        #[test]
        fn alloc_free_seal_interleavings_preserve_integrity(
            ops in proptest::collection::vec(
                proptest::prop_oneof![
                    proptest::Just(SlabOp::Alloc),
                    (0usize..4096).prop_map(SlabOp::Free),
                    proptest::Just(SlabOp::Seal),
                ],
                1..400,
            )
        ) {
            check_slab_ops(&ops);
        }

        /// Empty-slab detection is exact: after freeing every allocation
        /// and sealing, each touched slab settles to EMPTY — and never
        /// settles while any slot is outstanding.
        #[test]
        fn empty_detection_is_exact(n in 1usize..300, hold in 0usize..64) {
            let _guard = serial();
            let ptrs: Vec<*mut Node> =
                (0..n).map(|i| alloc_value(node(i as u64), true)).collect();
            let bases: HashSet<usize> = ptrs
                .iter()
                .map(|&p| p as usize & !(SLAB_BYTES - 1))
                .collect();
            release_thread_slabs();
            let hold = hold.min(n - 1);
            for &p in &ptrs[hold..] {
                unsafe { free_value(p) };
            }
            if hold > 0 {
                // Slabs with outstanding slots must NOT be empty.
                for &p in &ptrs[..hold] {
                    let base = p as usize & !(SLAB_BYTES - 1);
                    assert_ne!(
                        header_of(base).state.load(Ordering::Acquire),
                        STATE_EMPTY,
                        "slab settled with live slots"
                    );
                }
                for &p in &ptrs[..hold] {
                    unsafe { free_value(p) };
                }
            }
            for base in bases {
                assert_eq!(
                    header_of(base).state.load(Ordering::Acquire),
                    STATE_EMPTY,
                    "all slots freed + sealed ⇒ slab must settle"
                );
            }
        }
    }

    /// ISSUE 10 satellite (cross-thread): producers bump-allocate while a
    /// consumer frees from another thread; recycled slabs must never hand
    /// out a slot while any prior hand-out of it is still outstanding.
    #[test]
    fn cross_thread_recycling_never_reissues_live_slots() {
        let _guard = serial();
        use std::sync::atomic::AtomicBool;
        use std::sync::{mpsc, Arc};

        const PRODUCERS: usize = 3;
        const PER_THREAD: usize = 4000;

        // Raw pointers are not Send: ship them as addresses.
        let (tx, rx) = mpsc::channel::<usize>();
        let issued = Arc::new(Mutex::new(HashSet::<usize>::new()));
        let failed = Arc::new(AtomicBool::new(false));

        let handles: Vec<_> = (0..PRODUCERS)
            .map(|t| {
                let tx = tx.clone();
                let issued = Arc::clone(&issued);
                let failed = Arc::clone(&failed);
                std::thread::spawn(move || {
                    for i in 0..PER_THREAD {
                        let p = alloc_value(node((t * PER_THREAD + i) as u64), true);
                        if !issued.lock().unwrap().insert(p as usize) {
                            failed.store(true, Ordering::Relaxed);
                            return;
                        }
                        tx.send(p as usize).unwrap();
                        if i % 256 == 255 {
                            // Seal periodically so slabs cycle through
                            // EMPTY → pool → reuse while we run.
                            release_thread_slabs();
                        }
                    }
                    release_thread_slabs();
                })
            })
            .collect();
        drop(tx);

        // Consumer: free every node from a foreign thread (the settle CAS
        // and pool push race against the producers' acquire path).
        let mut freed = 0usize;
        for addr in rx {
            assert!(issued.lock().unwrap().remove(&addr));
            unsafe { free_value(addr as *mut Node) };
            freed += 1;
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(!failed.load(Ordering::Relaxed), "slot double-issued");
        assert_eq!(freed, PRODUCERS * PER_THREAD);
    }
}
