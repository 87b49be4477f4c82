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

/// The key a sealed block's lazy sort index is ordered by (see
/// [`RetireBatch::sorted_order`]).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum SortKey {
    /// No valid sort index (freshly filled or compacted block).
    Unsorted,
    /// Ordered by record pointer — merge-joined against sorted pointer
    /// reservation sets (HP-family sweeps).
    Ptr,
    /// Ordered by `birth_era` — merge-joined against sorted era
    /// reservation sets (hazard-era sweeps).
    Birth,
}

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

/// `mono` bit: pushes so far form a non-decreasing run of the tracked key.
const MONO_ASC: u8 = 1;
/// `mono` bit: pushes so far form a non-increasing run of the tracked key.
const MONO_DESC: u8 = 2;
/// `mono` bit: incremental tracking lost (slots were rearranged); fall
/// back to a scan.
const MONO_UNKNOWN: u8 = 4;

/// A fixed-size block of [`Retired`] records — the unit of the batched
/// retirement pipeline.
///
/// Threads fill an array of these privately — one per arena bin, routed by
/// the node pointer's high bits (`retire` is a slot write plus a length
/// bump) — then *seal* each full block into their retire list as a single
/// block pointer, amortizing the stats update and the reclaim-threshold
/// test over the block. Reclaimers sweep block-at-a-time (see
/// `pop_core::base::sweep_retire_list`), recycling fully-freed blocks into
/// a per-thread free pool so steady-state retirement allocates nothing.
///
/// Sealed blocks additionally carry a lazily computed *sort cache*: a
/// [`BlockSummary`] of key extrema (for whole-block range tests against a
/// sorted reservation set) and a sort index over the slots (for merge-join
/// sweeps). Both are computed in place on first use — no allocation — and
/// invalidated by any mutation, so a block that survives a sweep untouched
/// amortizes its sort across every subsequent pass.
///
/// Like `Vec<Retired>`, dropping a non-empty block *leaks* the recorded
/// allocations ([`Retired`] has no `Drop`); only a reclamation pass (or
/// domain teardown) frees them.
pub(crate) struct RetireBatch {
    len: usize,
    /// Which key `order` is currently sorted by.
    sort_key: SortKey,
    /// [`SUMMARY_PTR`] / [`SUMMARY_ERA`] validity bits for `summary`.
    summary_valid: u8,
    /// Sweeps that have looked at this block since it last changed —
    /// drives the sort-deferral heuristic (see `note_sweep`).
    sweeps: u8,
    /// [`MONO_ASC`] / [`MONO_DESC`] pointer-direction bits, maintained
    /// incrementally at push time (conservative: cleared bits are never
    /// re-derived incrementally), or [`MONO_UNKNOWN`] after an in-place
    /// compaction rearranged the slots.
    mono: u8,
    /// The same direction bits for the members' `birth_era` keys — the
    /// era-scheme analogue of `mono`: retire order is near-birth-order in
    /// most workloads, so era-sorted permutations are often free too.
    mono_era: u8,
    /// Pointer of the most recent push — the comparison anchor for `mono`.
    last_ptr: u64,
    /// Birth era of the most recent push — the anchor for `mono_era`.
    last_birth: u64,
    /// Slot permutation ordered by `sort_key` (first `len` entries).
    order: [u8; RETIRE_BATCH_CAP],
    /// Cached key extrema (per-half validity in `summary_valid`).
    summary: BlockSummary,
    slots: [core::mem::MaybeUninit<Retired>; RETIRE_BATCH_CAP],
}

impl RetireBatch {
    /// A fresh, empty, heap-allocated block.
    pub(crate) fn boxed() -> Box<RetireBatch> {
        Box::new(RetireBatch {
            len: 0,
            sort_key: SortKey::Unsorted,
            summary_valid: 0,
            sweeps: 0,
            mono: MONO_ASC | MONO_DESC,
            mono_era: MONO_ASC | MONO_DESC,
            last_ptr: 0,
            last_birth: 0,
            order: [0; RETIRE_BATCH_CAP],
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
    /// that need them, so [`SUMMARY_ERA`] (and the sort cache) are
    /// invalidated instead. Birth-era *direction* is tracked incrementally
    /// like the pointer direction, from the record's own copy of the era.
    #[inline]
    pub(crate) fn push(&mut self, r: Retired) {
        debug_assert!(self.len < RETIRE_BATCH_CAP, "retire block overfilled");
        let p = r.ptr() as u64;
        let birth = r.birth_era();
        if self.len == 0 {
            self.mono = MONO_ASC | MONO_DESC;
            self.mono_era = MONO_ASC | MONO_DESC;
        } else {
            if self.mono & MONO_UNKNOWN == 0 {
                // Incremental direction tracking: two compares against the
                // last push. After a `pop`, `last_ptr` is the popped
                // (extreme) value, which only makes the test stricter —
                // the bits stay conservative (set ⇒ truly monotone),
                // never optimistic.
                if p < self.last_ptr {
                    self.mono &= !MONO_ASC;
                }
                if p > self.last_ptr {
                    self.mono &= !MONO_DESC;
                }
            }
            if self.mono_era & MONO_UNKNOWN == 0 {
                if birth < self.last_birth {
                    self.mono_era &= !MONO_ASC;
                }
                if birth > self.last_birth {
                    self.mono_era &= !MONO_DESC;
                }
            }
        }
        self.last_ptr = p;
        self.last_birth = birth;
        if self.len == 0 {
            self.summary.min_ptr = p;
            self.summary.max_ptr = p;
            self.summary_valid = SUMMARY_PTR;
        } else if self.summary_valid & SUMMARY_PTR != 0 {
            self.summary.min_ptr = self.summary.min_ptr.min(p);
            self.summary.max_ptr = self.summary.max_ptr.max(p);
            self.summary_valid = SUMMARY_PTR;
        } else {
            // Existing members were never summarized (a pop invalidated
            // them): stay invalid and let the next sweep rescan.
            self.summary_valid = 0;
        }
        self.sort_key = SortKey::Unsorted;
        self.sweeps = 0;
        self.slots[self.len].write(r);
        self.len += 1;
    }

    /// Removes and returns the newest record.
    #[inline]
    pub(crate) fn pop(&mut self) -> Option<Retired> {
        if self.len == 0 {
            return None;
        }
        self.invalidate_cache();
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

    /// Drops the sort cache; any slot removal or rearrangement must call
    /// this (`push` keeps the pointer half alive instead — see there).
    #[inline]
    fn invalidate_cache(&mut self) {
        self.sort_key = SortKey::Unsorted;
        self.summary_valid = 0;
        self.sweeps = 0;
    }

    /// Whether the sort cache currently holds a `key`-ordered permutation.
    #[inline]
    pub(crate) fn has_sorted(&self, key: SortKey) -> bool {
        self.sort_key == key
    }

    /// O(1) monotonicity hint from the incremental push-time bits alone:
    /// `false` when tracking was lost ([`MONO_UNKNOWN`] after a
    /// compaction), never a scan. Sweeps use this to skip the
    /// sort-deferral heuristic — a monotone block's sorted permutation
    /// costs one detection pass, so even a first-sweep (churn) block
    /// takes the merge-join path when the binned fill made it monotone.
    #[inline]
    pub(crate) fn ptr_monotone_hint(&self) -> bool {
        self.mono & MONO_UNKNOWN == 0 && self.mono & (MONO_ASC | MONO_DESC) != 0
    }

    /// Whether the slots form an address-monotone run (ascending *or*
    /// descending pointers). Answered from the incremental push-time bits
    /// when they are live; a block that went through an in-place
    /// compaction ([`Self::set_len`]) pays one scan instead. Used by the
    /// seal path to count [`monotone sealed
    /// blocks`](crate::stats::ShardStats::blocks_sealed_monotone) — the
    /// share the arena-binned fill path is designed to maximize.
    pub(crate) fn is_ptr_monotone(&self) -> bool {
        if self.mono & MONO_UNKNOWN == 0 {
            return self.ptr_monotone_hint();
        }
        monotone_by(self.nodes(), |r| r.ptr() as u64)
    }

    /// O(1) birth-era monotonicity hint from the incremental push-time
    /// bits alone — the [`Self::ptr_monotone_hint`] analogue for the era
    /// sweeps: an era-monotone block's birth-sorted permutation costs one
    /// detection pass, so `free_era_unreserved` admits it to the
    /// merge-join path on its first sweep instead of deferring the sort.
    #[inline]
    pub(crate) fn era_monotone_hint(&self) -> bool {
        self.mono_era & MONO_UNKNOWN == 0 && self.mono_era & (MONO_ASC | MONO_DESC) != 0
    }

    /// Whether the slots form a birth-era-monotone run (ascending *or*
    /// descending), answered like [`Self::is_ptr_monotone`]: from the
    /// incremental bits when live, one record scan after a compaction.
    /// Feeds the `blocks_sealed_era_monotone` seal counter.
    pub(crate) fn is_era_monotone(&self) -> bool {
        if self.mono_era & MONO_UNKNOWN == 0 {
            return self.era_monotone_hint();
        }
        monotone_by(self.nodes(), Retired::birth_era)
    }

    /// Counts a sweep's visit and returns how many sweeps had seen this
    /// block (in its current state) before. Sweeps defer the block sort
    /// until a block proves long-lived (visited twice): single-visit
    /// blocks — the churn common case — never pay it.
    #[inline]
    pub(crate) fn note_sweep(&mut self) -> u8 {
        let s = self.sweeps;
        self.sweeps = s.saturating_add(1);
        s
    }

    /// Pointer extrema `(min_ptr, max_ptr)`, computed lazily from the
    /// inline records alone — **no header dereference** — and cached until
    /// the next mutation.
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

    /// Slot indices ordered by `key`, computed lazily (stack-local pair
    /// sort, no allocation) and cached until the next mutation. Merge-join
    /// sweeps walk this permutation against a sorted reservation set
    /// instead of binary-searching per record.
    ///
    /// Keys are extracted once into a stack array of `(key, slot)` pairs —
    /// not recomputed per comparison through the slot indirection — and
    /// monotone blocks are detected in one pass and cost no sort at all:
    /// ascending (fresh sequential allocations, monotone eras) *and*
    /// descending (refills drawn LIFO from an allocator free list) runs
    /// both yield their permutation directly.
    pub(crate) fn sorted_order(&mut self, key: SortKey) -> &[u8] {
        debug_assert!(key != SortKey::Unsorted, "must sort by a real key");
        if self.sort_key != key {
            let n = self.len;
            let nodes = self.nodes();
            let mut pairs = [(0u64, 0u8); RETIRE_BATCH_CAP];
            let mut ascending = true;
            let mut descending = true;
            let mut prev = 0u64;
            for (i, p) in pairs[..n].iter_mut().enumerate() {
                let k = match key {
                    SortKey::Ptr => nodes[i].ptr() as u64,
                    SortKey::Birth => nodes[i].birth_era,
                    SortKey::Unsorted => unreachable!(),
                };
                if i > 0 {
                    ascending &= k >= prev;
                    descending &= k <= prev;
                }
                prev = k;
                *p = (k, i as u8);
            }
            if ascending {
                for (i, o) in self.order[..n].iter_mut().enumerate() {
                    *o = i as u8;
                }
            } else if descending {
                for (i, o) in self.order[..n].iter_mut().enumerate() {
                    *o = (n - 1 - i) as u8;
                }
            } else {
                pairs[..n].sort_unstable();
                for (o, p) in self.order[..n].iter_mut().zip(&pairs[..n]) {
                    *o = p.1;
                }
            }
            self.sort_key = key;
        }
        &self.order[..self.len]
    }

    /// Raw base pointer for in-place compaction sweeps.
    #[inline]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut Retired {
        self.slots.as_mut_ptr() as *mut Retired
    }

    /// Overrides the initialized length (and drops the sort cache — the
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
        self.invalidate_cache();
        // The caller rearranged slots: the push-time direction bits no
        // longer describe them (an emptied block starts fresh instead).
        let bits = if len == 0 {
            MONO_ASC | MONO_DESC
        } else {
            MONO_UNKNOWN
        };
        self.mono = bits;
        self.mono_era = bits;
        self.len = len;
    }
}

/// Whether `key` is non-decreasing or non-increasing across `nodes`.
fn monotone_by(nodes: &[Retired], key: impl Fn(&Retired) -> u64) -> bool {
    let (mut asc, mut desc) = (true, true);
    for w in nodes.windows(2) {
        let (a, b) = (key(&w[0]), key(&w[1]));
        asc &= b >= a;
        desc &= b <= a;
    }
    asc || desc
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

    /// One batch mutation in the sort-cache property test.
    #[derive(Clone, Copy, Debug)]
    enum BatchOp {
        /// Push a fresh node with this birth era.
        Push(u64),
        /// Remove the newest record (cache invalidation).
        Pop,
        /// Count a sweep visit (sort-deferral bookkeeping).
        NoteSweep,
        /// Build/read the pointer-sorted permutation.
        SortPtr,
        /// Build/read the birth-sorted permutation.
        SortBirth,
        /// In-place compaction to at most this many slots.
        Truncate(usize),
    }

    /// Shadow-model check: the sort cache under `ops` must always yield a
    /// permutation that is a true sort of the live slots, extrema that
    /// bound every slot, and a monotone flag that never over-claims.
    fn check_sort_cache_ops(ops: &[BatchOp]) {
        let mut b = RetireBatch::boxed();
        // Shadow of the initialized slots: (ptr word, birth era, retire
        // era), the eras as the record carries them.
        let mut shadow: Vec<(u64, u64, u64)> = Vec::new();
        // Every allocation, freed exactly once at the end (records in the
        // batch are just pointers; `Retired` has no Drop).
        let mut allocated: Vec<*mut TestNode> = Vec::new();
        // Whether the batch has only seen pushes since it was last empty —
        // the state every seal happens in, where the monotone flag must be
        // exact, not merely conservative.
        let mut pure_push = true;

        for &op in ops {
            match op {
                BatchOp::Push(birth) => {
                    if b.len() == RETIRE_BATCH_CAP {
                        continue;
                    }
                    if b.is_empty() {
                        pure_push = true;
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
                    pure_push = false;
                }
                BatchOp::NoteSweep => {
                    b.note_sweep();
                }
                BatchOp::SortPtr | BatchOp::SortBirth => {
                    if b.is_empty() {
                        continue;
                    }
                    let key = if matches!(op, BatchOp::SortPtr) {
                        SortKey::Ptr
                    } else {
                        SortKey::Birth
                    };
                    let ord: Vec<u8> = b.sorted_order(key).to_vec();
                    assert!(b.has_sorted(key));
                    let mut seen = vec![false; shadow.len()];
                    let mut prev = 0u64;
                    for (i, &slot) in ord.iter().enumerate() {
                        let s = shadow[slot as usize];
                        let k = if key == SortKey::Ptr { s.0 } else { s.1 };
                        assert!(!core::mem::replace(&mut seen[slot as usize], true));
                        assert!(i == 0 || k >= prev, "permutation must sort {key:?}");
                        prev = k;
                    }
                    assert!(seen.iter().all(|&s| s), "permutation must be total");
                }
                BatchOp::Truncate(keep) => {
                    let keep = keep.min(b.len());
                    // SAFETY: only shrinks; abandoned records stay owned by
                    // `allocated` and are freed below.
                    unsafe { b.set_len(keep) };
                    shadow.truncate(keep);
                    pure_push = false;
                }
            }
            // Invariants that must hold after every mutation.
            assert_eq!(b.len(), shadow.len());
            if !b.is_empty() {
                let (min_ptr, max_ptr) = b.ptr_range();
                let (min_birth, min_retire, max_retire) = b.era_ranges();
                for &(p, birth, retire) in &shadow {
                    assert!(
                        (min_ptr..=max_ptr).contains(&p),
                        "ptr extrema must bound every slot"
                    );
                    assert!(min_birth <= birth, "birth extremum must bound");
                    assert!(
                        (min_retire..=max_retire).contains(&retire),
                        "retire extrema must bound"
                    );
                }
                let truly_monotone = shadow.windows(2).all(|w| w[1].0 >= w[0].0)
                    || shadow.windows(2).all(|w| w[1].0 <= w[0].0);
                if b.is_ptr_monotone() {
                    assert!(truly_monotone, "monotone flag must never over-claim");
                }
                let truly_era_monotone = shadow.windows(2).all(|w| w[1].1 >= w[0].1)
                    || shadow.windows(2).all(|w| w[1].1 <= w[0].1);
                if b.is_era_monotone() {
                    assert!(
                        truly_era_monotone,
                        "era-monotone flag must never over-claim"
                    );
                }
                if pure_push {
                    assert_eq!(
                        b.is_ptr_monotone(),
                        truly_monotone,
                        "after pure pushes (the seal state) the flag is exact"
                    );
                    assert_eq!(
                        b.is_era_monotone(),
                        truly_era_monotone,
                        "after pure pushes the era flag is exact too"
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

        /// ISSUE 4 satellite: arbitrary interleavings of
        /// push/pop/truncate/note_sweep/sort keep the sort cache honest.
        #[test]
        fn sort_cache_invariants_hold_under_arbitrary_ops(
            ops in proptest::collection::vec(
                proptest::prop_oneof![
                    (0u64..64).prop_map(BatchOp::Push),
                    proptest::Just(BatchOp::Pop),
                    proptest::Just(BatchOp::NoteSweep),
                    proptest::Just(BatchOp::SortPtr),
                    proptest::Just(BatchOp::SortBirth),
                    (0usize..RETIRE_BATCH_CAP).prop_map(BatchOp::Truncate),
                ],
                1..160,
            )
        ) {
            check_sort_cache_ops(&ops);
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
