//! Reclaimable-object header and type-erased retirement records.
//!
//! Every object managed by a reclamation scheme embeds a [`Header`] as its
//! **first** field and is `#[repr(C)]`, so `*mut Node` and `*mut Header`
//! are interconvertible.
//!
//! ## One word per node
//!
//! The header is a single `AtomicU64`:
//!
//! ```text
//!   63        56 55 54                                        0
//!  ┌────────────┬──┬───────────────────────────────────────────┐
//!  │   magic    │S │               birth era                   │
//!  └────────────┴──┴───────────────────────────────────────────┘
//!   live 0x51 /   slab   era at allocation (hazard eras / IBR;
//!   poison 0xDE   bit    0 for era-free schemes)
//! ```
//!
//! Everything else a reclaimer needs lives in the [`Retired`] record, not in
//! the node: the retiring thread copies the birth era and the slab bit out
//! of the header while it still has the line cached, and stamps the retire
//! era from the domain clock. Sweeps then read only their own records and
//! never touch a retired node until they free it, and a traversal's node
//! carries 8 bytes of reclamation state instead of 24 — for the
//! Harris-Michael list that is the difference between the 64-byte and the
//! 32-byte slab class.
//!
//! The size is not stored at all: its one reader is byte accounting, and
//! [`Retired::new`] is generic over the node type, so `size_of::<T>()` is
//! exact and free there.
//!
//! The birth era is the one per-node fact that cannot be captured at retire
//! time, so it stays. It has 55 bits: eras advance once per reclamation
//! pass or epoch tick, so the bound is never reached in practice, and
//! [`Header::new`] panics rather than truncate an era that exceeds it.

use core::sync::atomic::{AtomicU64, Ordering};

/// Magic byte (bits 56..64) while an object is live.
const LIVE_MAGIC: u64 = 0x51 << 56;
/// Magic byte after the object is logically freed into quarantine.
const POISON_MAGIC: u64 = 0xDE << 56;
const MAGIC_MASK: u64 = 0xFF << 56;
/// Records that the object lives in an owned slab slot ([`crate::slab`])
/// rather than a `Box` — the free path dispatches on it. Masking a pointer
/// to find its slab is only legal when this bit is set.
const SLAB_BIT: u64 = 1 << 55;
/// The birth-era field: the largest era a header can hold.
const ERA_MASK: u64 = SLAB_BIT - 1;

/// Intrusive one-word header for reclaimable objects (layout in the module
/// docs).
///
/// # Layout contract
///
/// Objects embedding a `Header` must be `#[repr(C)]` with the header first,
/// and must implement [`HasHeader`] (an unsafe marker enforcing exactly
/// that), so schemes can operate on type-erased `*mut Header`.
#[repr(C)]
pub struct Header {
    /// `magic | slab bit | birth era`; see module docs.
    meta: AtomicU64,
}

impl Header {
    /// A live header for an object born in `birth_era`.
    ///
    /// The size is not stored (module docs): [`Retired::new`] takes it from
    /// the type. The parameter stays so the signature does not change.
    ///
    /// # Panics
    ///
    /// If `birth_era` does not fit the 55-bit era field.
    pub fn new(birth_era: u64, _size: usize) -> Self {
        assert!(
            birth_era <= ERA_MASK,
            "birth era {birth_era} exceeds the header's 55-bit era field"
        );
        Header {
            meta: AtomicU64::new(LIVE_MAGIC | birth_era),
        }
    }

    /// Global era at allocation time (hazard eras / IBR lifespan lower
    /// bound). Zero for schemes without eras.
    pub fn birth_era(&self) -> u64 {
        self.meta.load(Ordering::Relaxed) & ERA_MASK
    }

    /// Whether the quarantine detector has marked this object freed.
    pub fn is_poisoned(&self) -> bool {
        self.meta.load(Ordering::Relaxed) & MAGIC_MASK == POISON_MAGIC
    }

    /// Whether the object lives in an owned slab slot (see [`crate::slab`]).
    /// Set once at allocation, before the pointer is published; only
    /// slab-backed pointers may be masked down to their slab base.
    pub fn is_slab_backed(&self) -> bool {
        self.meta.load(Ordering::Relaxed) & SLAB_BIT != 0
    }

    /// Records that the object was placed in a slab slot. Called by the
    /// slab allocator before the pointer is published anywhere.
    pub(crate) fn mark_slab_backed(&self) {
        self.meta.fetch_or(SLAB_BIT, Ordering::Relaxed);
    }

    /// Marks the object freed (quarantine mode), keeping the slab bit and
    /// the birth era.
    pub(crate) fn poison(&self) {
        let keep = self.meta.load(Ordering::Relaxed) & !MAGIC_MASK;
        self.meta.store(POISON_MAGIC | keep, Ordering::Release);
    }
}

/// Marker trait for `#[repr(C)]` types whose first field is a [`Header`].
///
/// # Safety
///
/// Implementors guarantee the layout contract above, making
/// `*mut Self ⇄ *mut Header` casts valid.
pub unsafe trait HasHeader: Sized {
    /// Shared access to the embedded header.
    fn header(&self) -> &Header {
        // SAFETY: repr(C) + header-first guaranteed by the implementor.
        unsafe { &*(self as *const Self as *const Header) }
    }
}

/// Type-erased record of a retired object awaiting reclamation.
///
/// Carries the deallocation function, so heterogeneous node types can share
/// one retire list, and every fact a sweep tests: the lifespan
/// (`birth_era`, `retire_era`), the size for byte accounting and the slab
/// bit for the free dispatch. The node's header is read once, by
/// [`Self::new`], while the retiring thread still has it cached; sweeps
/// never dereference the node before they free it.
#[derive(Debug)]
pub struct Retired {
    ptr: *mut Header,
    /// `None` for slab-backed types with no drop glue: the slot return is
    /// the entire free, so the whole-slab settlement loop skips the record.
    drop_fn: Option<unsafe fn(*mut Header)>,
    birth_era: u64,
    retire_era: u64,
    /// `size_of::<T>()`.
    size: u32,
    /// The header's slab bit, captured at retirement.
    slab: bool,
}

// SAFETY: a Retired is an exclusively-owned deferred destructor; the object
// it points to is unlinked and only ever freed once, by whichever thread
// drains the retire list.
unsafe impl Send for Retired {}

impl Retired {
    /// Creates a retirement record for `ptr` with retire era `u64::MAX`
    /// ("never freeable" for epoch sweeps) until [`Self::set_retire_era`]
    /// stamps it.
    ///
    /// # Safety
    ///
    /// `ptr` must point to a live `T` allocated either as a `Box` or from
    /// the slab allocator ([`crate::slab::alloc_value`] — the header's slab
    /// bit decides which free path runs), unlinked from every shared
    /// structure, and must not be retired again.
    pub unsafe fn new<T: HasHeader>(ptr: *mut T) -> Retired {
        unsafe fn drop_box<T>(h: *mut Header) {
            // SAFETY: constructed from Box<T> in `Retired::new`; called at
            // most once, after the scheme proved no thread can access it.
            unsafe { drop(Box::from_raw(h as *mut T)) }
        }
        unsafe fn drop_slab_payload<T>(h: *mut Header) {
            // SAFETY: the slab bit proved `h` is a slab slot; called at
            // most once, after the scheme proved no thread can access it.
            // The slot itself is returned by the caller ([`Retired::free`]
            // per node, or the whole-slab batch settlement in one step).
            unsafe { core::ptr::drop_in_place(h as *mut T) }
        }
        const { assert!(core::mem::size_of::<T>() <= u32::MAX as usize) };
        // SAFETY: `ptr` is live per the caller's contract.
        let meta = unsafe { (*(ptr as *mut Header)).meta.load(Ordering::Relaxed) };
        let slab = meta & SLAB_BIT != 0;
        Retired {
            ptr: ptr as *mut Header,
            drop_fn: if slab {
                // No drop glue ⇒ returning the slot IS the free.
                core::mem::needs_drop::<T>().then_some(drop_slab_payload::<T> as _)
            } else {
                Some(drop_box::<T>)
            },
            birth_era: meta & ERA_MASK,
            retire_era: u64::MAX,
            size: core::mem::size_of::<T>() as u32,
            slab,
        }
    }

    /// Records the era at which the object was retired. Must precede the
    /// hand-off to a retire list: the record is immutable from there on.
    pub fn set_retire_era(&mut self, era: u64) {
        self.retire_era = era;
    }

    /// The node's birth era, captured from its header at retirement.
    #[inline]
    pub fn birth_era(&self) -> u64 {
        self.birth_era
    }

    /// Era recorded by [`Self::set_retire_era`], or `u64::MAX`.
    #[inline]
    pub fn retire_era(&self) -> u64 {
        self.retire_era
    }

    /// The retired object's size in bytes (`size_of::<T>()`).
    #[inline]
    pub(crate) fn size(&self) -> usize {
        self.size as usize
    }

    /// Whether the object lives in a slab slot (the header's slab bit at
    /// retirement).
    #[inline]
    pub(crate) fn is_slab_backed(&self) -> bool {
        self.slab
    }

    /// The retired object's header.
    pub fn header(&self) -> &Header {
        // SAFETY: `ptr` stays valid until `free` (quarantine keeps the
        // allocation alive even after poisoning).
        unsafe { &*self.ptr }
    }

    /// Raw header pointer (for reservation-set membership tests).
    pub fn ptr(&self) -> *mut Header {
        self.ptr
    }

    /// Invokes the deallocation function.
    ///
    /// # Safety
    ///
    /// Caller must have established that no thread can access the object —
    /// this is precisely the reclamation scheme's job.
    pub(crate) unsafe fn free(self) {
        // SAFETY: forwarded contract. Slab-backed records drop the payload
        // then return their slot; Box-backed records drop whole.
        unsafe {
            if let Some(drop_fn) = self.drop_fn {
                drop_fn(self.ptr);
            }
            if self.slab {
                crate::slab::free_slot(self.ptr as *mut u8);
            }
        }
    }

    /// Drops the payload **without** returning the slot — the whole-slab
    /// settlement path, where the caller returns every slot of the block in
    /// one [`crate::slab::free_slots_batch`] accounting step.
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::free`], and the record must be slab-backed
    /// (the caller proved the block is confined to one slab).
    pub(crate) unsafe fn drop_payload_for_batch(self) {
        debug_assert!(self.slab);
        if let Some(drop_fn) = self.drop_fn {
            // SAFETY: forwarded contract.
            unsafe { drop_fn(self.ptr) }
        }
    }
}

/// Capacity of one retire-batch block (the internal `RetireBatch`). The configured seal threshold
/// ([`crate::config::SmrConfig::retire_batch`]) may be smaller — a block is
/// sealed once it reaches the threshold — but never larger.
pub const RETIRE_BATCH_CAP: usize = 32;

/// Cached per-block key extrema, reused by every sweep until the block is
/// mutated. Both halves read only the inline [`Retired`] records — no sweep
/// touches node memory for a surviving block:
///
/// * the **pointer** extrema are maintained at push time, while
/// * the **era** extrema cost one pass over the records on first use, so
///   the HP-family retire path pays no era compares.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct BlockSummary {
    /// Smallest record pointer in the block.
    pub min_ptr: u64,
    /// Largest record pointer in the block.
    pub max_ptr: u64,
    /// Smallest `birth_era` in the block.
    pub min_birth: u64,
    /// Smallest `retire_era` in the block.
    pub min_retire: u64,
    /// Largest `retire_era` in the block.
    pub max_retire: u64,
}

/// `summary_valid` bit: pointer extrema are current.
const SUMMARY_PTR: u8 = 1;
/// `summary_valid` bit: era extrema (birth + retire) are current.
const SUMMARY_ERA: u8 = 2;

/// A fixed-size block of [`Retired`] records — the unit of the batched
/// retirement pipeline.
///
/// Threads fill an array of these privately — one per fill bin, routed by
/// the node's slab (`retire` is a slot write plus a length bump) — then
/// *seal* each full block into their retire list as a single block pointer,
/// amortizing the stats update and the reclaim-threshold test over the
/// block. Reclaimers sweep block-at-a-time (see
/// `pop_core::base::sweep_blocks`), recycling fully-freed blocks into a
/// per-thread free pool so steady-state retirement allocates nothing.
///
/// Each block carries a [`BlockSummary`] of key extrema, the input to the
/// sweeps' whole-block range test against a sorted reservation set. It is
/// computed in place (no allocation) and dropped by any removal, so a block
/// that survives a sweep untouched is range-tested from its summary alone
/// on every later pass.
///
/// Like `Vec<Retired>`, dropping a non-empty block *leaks* the recorded
/// allocations ([`Retired`] has no `Drop`); only a reclamation pass (or
/// domain teardown) frees them.
pub(crate) struct RetireBatch {
    len: usize,
    /// [`SUMMARY_PTR`] / [`SUMMARY_ERA`] validity bits for `summary`.
    summary_valid: u8,
    /// Cached key extrema (per-half validity in `summary_valid`).
    summary: BlockSummary,
    slots: [core::mem::MaybeUninit<Retired>; RETIRE_BATCH_CAP],
}

impl RetireBatch {
    /// A fresh, empty, heap-allocated block.
    pub(crate) fn boxed() -> Box<RetireBatch> {
        Box::new(RetireBatch {
            len: 0,
            summary_valid: 0,
            summary: BlockSummary::default(),
            slots: [const { core::mem::MaybeUninit::uninit() }; RETIRE_BATCH_CAP],
        })
    }

    /// Number of initialized records.
    #[inline(always)]
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether the block holds no records.
    #[inline(always)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends a record. The caller keeps `len() < RETIRE_BATCH_CAP` by
    /// sealing at its (smaller or equal) threshold.
    ///
    /// The pointer extrema are maintained *incrementally* here (two
    /// compares on the hot retire path): record pointers never change, so
    /// the [`SUMMARY_PTR`] half stays valid through the whole fill and
    /// sweeps never pay a scan for it. Era extrema are left to the sweeps
    /// that need them, so [`SUMMARY_ERA`] is dropped instead.
    #[inline]
    pub(crate) fn push(&mut self, r: Retired) {
        debug_assert!(self.len < RETIRE_BATCH_CAP, "retire block overfilled");
        let p = r.ptr() as u64;
        if self.len == 0 {
            self.summary.min_ptr = p;
            self.summary.max_ptr = p;
            self.summary_valid = SUMMARY_PTR;
        } else {
            // Harmless when the pointer half is stale (a pop dropped it):
            // it stays invalid and the next sweep rescans.
            self.summary.min_ptr = self.summary.min_ptr.min(p);
            self.summary.max_ptr = self.summary.max_ptr.max(p);
            self.summary_valid &= SUMMARY_PTR;
        }
        self.slots[self.len].write(r);
        self.len += 1;
    }

    /// Removes and returns the newest record.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Retired> {
        if self.len == 0 {
            return None;
        }
        self.summary_valid = 0;
        self.len -= 1;
        // SAFETY: slot `len` was initialized by `push` and is now out of
        // the initialized prefix, so it cannot be read again.
        Some(unsafe { self.slots[self.len].assume_init_read() })
    }

    /// The initialized records as a slice (oldest first).
    #[inline]
    pub(crate) fn nodes(&self) -> &[Retired] {
        // SAFETY: the first `len` slots are initialized.
        unsafe { core::slice::from_raw_parts(self.slots.as_ptr() as *const Retired, self.len) }
    }

    /// Whether both summary halves are cached (tests: extrema must survive
    /// block-granular parking).
    #[cfg(test)]
    pub(crate) fn summary_is_cached(&self) -> bool {
        self.summary_valid == SUMMARY_PTR | SUMMARY_ERA
    }

    /// Pointer extrema `(min_ptr, max_ptr)`, computed lazily from the
    /// inline records alone — **no header dereference** — and cached until
    /// the next removal.
    pub(crate) fn ptr_range(&mut self) -> (u64, u64) {
        if self.summary_valid & SUMMARY_PTR == 0 {
            debug_assert!(self.len > 0, "summary of an empty block");
            let mut min = u64::MAX;
            let mut max = 0u64;
            for r in self.nodes() {
                let p = r.ptr() as u64;
                min = min.min(p);
                max = max.max(p);
            }
            self.summary.min_ptr = min;
            self.summary.max_ptr = max;
            self.summary_valid |= SUMMARY_PTR;
        }
        (self.summary.min_ptr, self.summary.max_ptr)
    }

    /// Era extrema `(min_birth, min_retire, max_retire)`, computed lazily
    /// (one pass over the records) and cached until the next mutation.
    pub(crate) fn era_ranges(&mut self) -> (u64, u64, u64) {
        if self.summary_valid & SUMMARY_ERA == 0 {
            debug_assert!(self.len > 0, "summary of an empty block");
            let mut min_birth = u64::MAX;
            let mut min_retire = u64::MAX;
            let mut max_retire = 0u64;
            for r in self.nodes() {
                min_birth = min_birth.min(r.birth_era);
                min_retire = min_retire.min(r.retire_era);
                max_retire = max_retire.max(r.retire_era);
            }
            self.summary.min_birth = min_birth;
            self.summary.min_retire = min_retire;
            self.summary.max_retire = max_retire;
            self.summary_valid |= SUMMARY_ERA;
        }
        (
            self.summary.min_birth,
            self.summary.min_retire,
            self.summary.max_retire,
        )
    }

    /// Raw base pointer for in-place compaction sweeps.
    #[inline]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut Retired {
        self.slots.as_mut_ptr() as *mut Retired
    }

    /// Overrides the initialized length (and drops the summary — the
    /// caller has rearranged slots).
    ///
    /// # Safety
    ///
    /// The first `len` slots must hold initialized records the caller has
    /// not moved out, and any truncated-away records must have been read
    /// out (or be deliberately abandoned).
    #[inline]
    pub(crate) unsafe fn set_len(&mut self, len: usize) {
        debug_assert!(len <= RETIRE_BATCH_CAP);
        self.summary_valid = 0;
        self.len = len;
    }
}

/// Strips data-structure mark bits (low 2 bits) from a pointer-sized word.
///
/// Lock-free structures tag pointers (e.g. Harris-Michael deletion marks);
/// reservations must record the *node address*, so schemes unmark before
/// storing and comparing.
#[inline(always)]
pub fn unmark_word(p: u64) -> u64 {
    p & !0b11
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::Strategy as _;

    #[repr(C)]
    struct TestNode {
        hdr: Header,
        payload: [u64; 4],
    }
    unsafe impl HasHeader for TestNode {}

    #[test]
    fn header_roundtrip() {
        assert_eq!(core::mem::size_of::<Header>(), 8);
        let h = Header::new(42, 96);
        assert_eq!(h.birth_era(), 42);
        assert!(!h.is_poisoned());
        assert!(!h.is_slab_backed());
        h.mark_slab_backed();
        h.poison();
        assert!(h.is_poisoned());
        assert!(h.is_slab_backed(), "poisoning keeps the slab bit");
        assert_eq!(h.birth_era(), 42, "poisoning keeps the birth era");
    }

    #[test]
    fn header_holds_the_largest_55_bit_era() {
        let h = Header::new(ERA_MASK, 0);
        assert_eq!(h.birth_era(), (1 << 55) - 1);
        h.mark_slab_backed();
        assert_eq!(h.birth_era(), ERA_MASK, "the slab bit is not an era bit");
        assert!(!h.is_poisoned());
    }

    #[test]
    #[should_panic(expected = "55-bit era field")]
    fn header_refuses_an_era_above_55_bits() {
        let _ = Header::new(1 << 55, 0);
    }

    #[test]
    fn retired_captures_the_header_at_retirement() {
        let node = Box::into_raw(Box::new(TestNode {
            hdr: Header::new(3, 999),
            payload: [0; 4],
        }));
        let mut r = unsafe { Retired::new(node) };
        assert_eq!(r.birth_era(), 3);
        assert_eq!(r.retire_era(), u64::MAX, "unstamped");
        assert_eq!(
            r.size(),
            core::mem::size_of::<TestNode>(),
            "size is the type's"
        );
        assert!(!r.is_slab_backed());
        r.set_retire_era(9);
        assert_eq!(r.retire_era(), 9);
        // The record no longer reads the node: scribbling the header leaves
        // it intact.
        unsafe { core::ptr::write_bytes(node as *mut u8, 0xA5, 8) };
        assert_eq!((r.birth_era(), r.retire_era()), (3, 9));
        unsafe { r.free() };
    }

    #[test]
    fn retire_batch_push_pop_roundtrip() {
        let mut b = RetireBatch::boxed();
        assert!(b.is_empty());
        let mut ptrs = Vec::new();
        for i in 0..RETIRE_BATCH_CAP {
            let node = Box::into_raw(Box::new(TestNode {
                hdr: Header::new(i as u64, core::mem::size_of::<TestNode>()),
                payload: [0; 4],
            }));
            ptrs.push(node as *mut Header);
            b.push(unsafe { Retired::new(node) });
        }
        assert_eq!(b.len(), RETIRE_BATCH_CAP);
        assert_eq!(
            b.nodes().iter().map(|r| r.ptr()).collect::<Vec<_>>(),
            ptrs,
            "slice view preserves push order"
        );
        for i in (0..RETIRE_BATCH_CAP).rev() {
            let r = b.pop().unwrap();
            assert_eq!(r.ptr(), ptrs[i], "pop returns newest first");
            unsafe { r.free() };
        }
        assert!(b.pop().is_none());
    }

    #[test]
    fn unmark_strips_low_bits() {
        assert_eq!(unmark_word(0x1000), 0x1000);
        assert_eq!(unmark_word(0x1001), 0x1000);
        assert_eq!(unmark_word(0x1003), 0x1000);
        assert_eq!(unmark_word(3), 0);
    }

    /// One step of the block-summary property test.
    #[derive(Clone, Copy, Debug)]
    enum BatchOp {
        /// Push a fresh node with this birth era.
        Push(u64),
        /// Remove the newest record (summary invalidation).
        Pop,
        /// In-place compaction to at most this many slots.
        Truncate(usize),
        /// Read both summary halves and check them against the shadow.
        Summarize,
    }

    /// Shadow-model check: whenever a sweep reads the summary of a block
    /// shaped by `ops`, the extrema are exactly those of the live slots —
    /// whether they come from the push-time pointer half, a rescan after a
    /// removal, or the lazily computed era half.
    fn check_summary_ops(ops: &[BatchOp]) {
        let mut b = RetireBatch::boxed();
        // Shadow of the initialized slots: (ptr word, birth era, retire
        // era), the eras as the record carries them.
        let mut shadow: Vec<(u64, u64, u64)> = Vec::new();
        // Every allocation, freed exactly once at the end (records in the
        // batch are just pointers; `Retired` has no Drop).
        let mut allocated: Vec<*mut TestNode> = Vec::new();

        for &op in ops.iter().chain([&BatchOp::Summarize]) {
            match op {
                BatchOp::Push(birth) => {
                    if b.len() == RETIRE_BATCH_CAP {
                        continue;
                    }
                    let node = Box::into_raw(Box::new(TestNode {
                        hdr: Header::new(birth, core::mem::size_of::<TestNode>()),
                        payload: [0; 4],
                    }));
                    allocated.push(node);
                    let mut r = unsafe { Retired::new(node) };
                    r.set_retire_era(birth + 1 + (birth & 3));
                    shadow.push((r.ptr() as u64, r.birth_era(), r.retire_era()));
                    b.push(r);
                    // Everything below must come from the record: the
                    // node's header is garbage from here on.
                    unsafe {
                        (*node).hdr = Header {
                            meta: AtomicU64::new(!0),
                        }
                    };
                }
                BatchOp::Pop => {
                    let got = b.pop().map(|r| r.ptr() as u64);
                    assert_eq!(got, shadow.pop().map(|s| s.0), "pop order");
                }
                BatchOp::Truncate(keep) => {
                    let keep = keep.min(b.len());
                    // SAFETY: only shrinks; abandoned records stay owned by
                    // `allocated` and are freed below.
                    unsafe { b.set_len(keep) };
                    shadow.truncate(keep);
                }
                BatchOp::Summarize => {
                    assert_eq!(b.len(), shadow.len());
                    if b.is_empty() {
                        continue;
                    }
                    let min = |f: fn(&(u64, u64, u64)) -> u64| shadow.iter().map(f).min();
                    let max = |f: fn(&(u64, u64, u64)) -> u64| shadow.iter().map(f).max();
                    assert_eq!(
                        Some(b.ptr_range()),
                        min(|s| s.0).zip(max(|s| s.0)),
                        "pointer extrema"
                    );
                    let (min_birth, min_retire, max_retire) = b.era_ranges();
                    assert_eq!(Some(min_birth), min(|s| s.1), "birth extremum");
                    assert_eq!(
                        Some((min_retire, max_retire)),
                        min(|s| s.2).zip(max(|s| s.2)),
                        "retire extrema"
                    );
                }
            }
        }
        drop(b); // leaks its records; the allocations are freed below
        for p in allocated {
            unsafe { drop(Box::from_raw(p)) };
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Arbitrary interleavings of push/pop/truncate keep the block
        /// summary exact wherever a sweep reads it.
        #[test]
        fn summary_extrema_hold_under_arbitrary_ops(
            ops in proptest::collection::vec(
                proptest::prop_oneof![
                    (0u64..64).prop_map(BatchOp::Push),
                    proptest::Just(BatchOp::Pop),
                    (0usize..RETIRE_BATCH_CAP).prop_map(BatchOp::Truncate),
                    proptest::Just(BatchOp::Summarize),
                ],
                1..160,
            )
        ) {
            check_summary_ops(&ops);
        }
    }

    #[test]
    fn has_header_view_matches_field() {
        let node = TestNode {
            hdr: Header::new(11, 64),
            payload: [1; 4],
        };
        assert_eq!(node.header().birth_era(), 11);
    }
}
