//! Domain plumbing shared by every scheme: thread-slot occupancy, batched
//! retire lists, per-thread epoch clocks, reusable reclamation scratch, the
//! quarantine use-after-free detector, and orphan handling.
//!
//! ## Batch lifecycle (fill → seal → range test → per-node test → recycle)
//!
//! Retirement is batched through [`RetireList`]. A node's whole life in
//! the pipeline, including the orphan detour a thread's death takes:
//!
//! ```text
//!            retire(ptr)
//!                │  bin = (ptr / SLAB_BYTES) % FILL_BINS
//!                ▼
//!   ┌──── fill bins (thread-private) ────┐
//!   │ [bin 0][bin 1]  ··· [bin 6][bin 7] │   pointer extrema kept
//!   └─────────────────┬──────────────────┘   at push
//!                     │ bin reaches retire_batch
//!                     ▼
//!        sealed blocks (Vec<Box<RetireBatch>>)
//!           │              ▲      ▲
//!           │ unregister   │      │ adopt/steal ≤ 8 blocks,
//!           ▼              │      │ extrema intact (O(1)/block)
//!        domain orphan list ──────┘
//!           │
//!           ▼ sweep: range test ▸ per-node window test ▸ compact
//!        freed whole (one slab: one settle) │ kept │ box → free pool
//! ```
//!
//! 1. **Fill** — `retire` appends to one of [`FILL_BINS`] thread-private
//!    [`RetireBatch`](crate::header::RetireBatch) *fill bins*, routed by
//!    the node's slab (`(ptr / SLAB_BYTES) % FILL_BINS`): one slot write and
//!    a length bump, no stats RMW, no threshold test. Every slot of a slab
//!    lands in the same bin, so a block sealed from one thread's bump fill
//!    is confined to one slab; `Box`-backed nodes route by the same 64 KiB
//!    address region.
//! 2. **Seal** — when a bin reaches the configured threshold
//!    ([`crate::config::SmrConfig::retire_batch`], never above
//!    `reclaim_freq`), it moves into the list's sealed-block vector as one
//!    pointer. Only here do the amortized costs run: one `retired_nodes`
//!    bump for the whole block and one reclaim-threshold comparison
//!    ([`push_retired`]).
//! 3. **Range test** — reservation-filter sweeps ([`free_unreserved`],
//!    [`free_era_unreserved`], [`free_before_epoch`]) first test each
//!    block's key extrema against the sorted reserved set: a block whose
//!    span contains no reserved word is freed whole, and a block whose
//!    every member is provably pinned is kept whole, *without touching a
//!    single record* (Hyaline/Crystalline-style batch-granular filtering).
//! 4. **Per-node test** — a block the range test cannot decide tests each
//!    record once against the *narrowed* reserved window (the words inside
//!    the block's span): a binary search for pointers,
//!    [`era_range_reserved`] for lifespans. Survivors compact in place and
//!    stay **in their original retire order** within and across blocks.
//!    IBR's interval test rides the same block driver with its own
//!    per-node predicate ([`keep_mask`]).
//! 5. **Free/recycle** — a wholly-freed block confined to one slab settles
//!    against it in one step; emptied block boxes return to the list's
//!    free pool, so steady-state retire + reclaim performs **zero heap
//!    allocations** once the pools reach working size. Flush paths seal
//!    partial bins first (inside the sweep), and `unregister` seals every
//!    non-empty bin and parks the **sealed blocks themselves** on the
//!    domain orphan list ([`DomainBase::orphan_remaining`]) — no node is
//!    ever parked unsealed (partial batches are never leaked), no record
//!    is copied, and each block keeps its extrema through the park.
//!    Joining threads adopt a bounded block chunk back
//!    ([`DomainBase::adopt_orphan_chunk`]), and every sweep steals up to
//!    one more chunk ([`DomainBase::steal_orphan_chunk`]) — O(1) per
//!    block — so orphans drain even when no thread ever joins again, and
//!    a stolen block range-tests from its surviving summary.
//!
//! ## Epoch max-aggregation invariant
//!
//! Epoch-based schemes (EBR, EpochPOP, IBR) used to `fetch_add` one shared
//! global-epoch word every `epoch_freq` operations per thread — the last
//! cross-thread RMW on the operation path. [`EpochClocks`] replaces it:
//! each thread *ticks a private, cache-padded clock* (a relaxed store to
//! its own line), and **the shared word is written only by reclaimer
//! passes**, which aggregate the clocks *striped*: stripes of
//! [`EPOCH_STRIPE`] clocks fold into per-stripe summary words, a pass
//! refreshes only its own stripe plus one rotating stripe, and the global
//! is `fetch_max`ed from the summaries
//! ([`EpochClocks::advance_max_scan`]) — O(threads / 8) per pass instead
//! of O(threads). A reclaimer first jumps its
//! own clock past the current global, so **every pass advances the
//! epoch** even when its private clock lagged a formerly-hot, now-idle
//! peer's. Safety is unaffected: readers
//! announce, and retirers tag, values of the same monotone global word, so
//! *when* it advances only affects reclamation latency, never which frees
//! are legal.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::config::SmrConfig;
use crate::header::{RetireBatch, Retired, RETIRE_BATCH_CAP};
use crate::pop_shared::Rows;
use crate::pressure::{Escalation, PressureRung, StallTracker};
use crate::slab::SLAB_BYTES;
use crate::stats::DomainStats;

// Keep masks pack one bit per block slot into a u32.
const _: () = assert!(RETIRE_BATCH_CAP <= 32, "BlockPlan::Mask is a u32");

/// Blocks a joining thread adopts from the domain orphan list at
/// registration — and a sweep steals per pass. Bounded so registration
/// stays cheap and a pass is not dominated by foreign garbage; at most
/// `8 × RETIRE_BATCH_CAP` nodes per chunk.
const ORPHAN_CHUNK_BLOCKS: usize = 8;

/// Node-count bound of one orphan chunk (tests and docs).
#[cfg(test)]
const ORPHAN_ADOPT_MAX: usize = ORPHAN_CHUNK_BLOCKS * RETIRE_BATCH_CAP;

/// Orphan-list stripes for a domain of `n` thread slots: a small power of
/// two so park/adopt/steal from different tids take different mutexes
/// during reap storms and quarantine drains, without a per-tid mutex
/// forest on wide domains.
fn orphan_stripes(n: usize) -> usize {
    n.min(8).next_power_of_two()
}

/// Fill bins per retire list. Retirements route by slab —
/// `(ptr / SLAB_BYTES) % FILL_BINS` — so every slot of a slab lands in one
/// bin and a block sealed from one thread's bump fill is confined to one
/// slab: freed whole, it settles against that slab in one step. A thread
/// bump-fills one slab per size class it uses, so eight bins usually give
/// each of those slabs a bin of its own; `Box`-backed nodes route by the
/// same 64 KiB address region.
const FILL_BINS: usize = 8;
const _: () = assert!(FILL_BINS.is_power_of_two());

/// The fill bin a node at `ptr` routes to.
#[inline(always)]
fn fill_bin(ptr: u64) -> usize {
    (ptr as usize / SLAB_BYTES) & (FILL_BINS - 1)
}

/// What one seal event produced — the input to the amortized accounting
/// ([`account_seal`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct SealOutcome {
    /// Nodes sealed.
    pub nodes: usize,
    /// Blocks sealed (a flush seals up to one per fill bin).
    pub blocks: u64,
}

/// A per-thread batched retire list (see the module-level lifecycle).
///
/// Not a public type: schemes own one per thread behind a [`RetireSlot`].
pub(crate) struct RetireList {
    /// Seal threshold (`1..=RETIRE_BATCH_CAP`).
    seal: usize,
    /// Nodes held in sealed blocks (excludes the fill bins).
    sealed_nodes: usize,
    /// Nodes held across the fill bins (kept so [`Self::len`] is O(1)).
    fill_nodes: usize,
    /// Nodes sealed since the last reclaim trigger (or pass). Paces
    /// [`push_retired`]'s trigger to one pass per `reclaim_freq` *new*
    /// retires: survivors pinning `len` above the threshold (a stalled
    /// reader) must not turn every subsequent seal into a full-list
    /// sweep.
    sealed_since_trigger: usize,
    /// Sealed blocks, oldest first. Deliberately boxed (not `vec_box`
    /// noise): a sealed block is handed around *as one pointer* — between
    /// the fill bins, this vector, the free pool, the domain orphan list
    /// and Hyaline's global batches — so moves are 8 bytes, not 1 KiB+.
    #[allow(clippy::vec_box)]
    blocks: Vec<Box<RetireBatch>>,
    /// The fill bins, indexed by [`fill_bin`].
    fills: [Box<RetireBatch>; FILL_BINS],
    /// Recycled empty blocks (the allocation-free steady state).
    #[allow(clippy::vec_box)]
    free: Vec<Box<RetireBatch>>,
}

impl RetireList {
    pub(crate) fn new(seal: usize) -> Self {
        RetireList {
            seal: seal.clamp(1, RETIRE_BATCH_CAP),
            sealed_nodes: 0,
            fill_nodes: 0,
            sealed_since_trigger: 0,
            blocks: Vec::new(),
            fills: core::array::from_fn(|_| RetireBatch::boxed()),
            free: Vec::new(),
        }
    }

    /// Total nodes held (sealed blocks + fill bins).
    #[inline]
    pub(crate) fn len(&self) -> usize {
        self.sealed_nodes + self.fill_nodes
    }

    #[inline]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Hot-path append: routes to the node's slab bin. Returns the
    /// [`SealOutcome`] when this push sealed the bin — the caller owes the
    /// amortized accounting ([`push_retired`]).
    #[inline]
    pub(crate) fn push(&mut self, r: Retired) -> Option<SealOutcome> {
        let bin = fill_bin(r.ptr() as u64);
        self.fills[bin].push(r);
        self.fill_nodes += 1;
        if self.fills[bin].len() >= self.seal {
            Some(self.seal_bin(bin))
        } else {
            None
        }
    }

    fn seal_bin(&mut self, bin: usize) -> SealOutcome {
        let n = self.fills[bin].len();
        let fresh = self.free.pop().unwrap_or_else(RetireBatch::boxed);
        let full = core::mem::replace(&mut self.fills[bin], fresh);
        self.blocks.push(full);
        self.sealed_nodes += n;
        self.fill_nodes -= n;
        self.sealed_since_trigger += n;
        SealOutcome {
            nodes: n,
            blocks: 1,
        }
    }

    /// Resets the trigger pacing — a pass just ran (or is about to), so
    /// the next one waits for a fresh `reclaim_freq` worth of retires.
    pub(crate) fn note_pass(&mut self) {
        self.sealed_since_trigger = 0;
    }

    /// Seals every non-empty fill bin (flush/unregister paths): after
    /// this, every held node sits in a sealed, summarized block — nothing
    /// is ever handed onward unsealed. Returns the merged outcome
    /// (`nodes == 0` if all bins were empty).
    pub(crate) fn seal_partial(&mut self) -> SealOutcome {
        let mut out = SealOutcome::default();
        for bin in 0..FILL_BINS {
            if !self.fills[bin].is_empty() {
                let s = self.seal_bin(bin);
                out.nodes += s.nodes;
                out.blocks += s.blocks;
            }
        }
        out
    }

    /// Moves every sealed block out (Hyaline hands them to its global
    /// batch list; `unregister` parks them on the domain orphan list).
    /// The caller must have sealed the fill bins first.
    #[allow(clippy::vec_box)]
    pub(crate) fn take_blocks(&mut self) -> Vec<Box<RetireBatch>> {
        debug_assert!(self.fill_nodes == 0, "seal before taking blocks");
        self.sealed_nodes = 0;
        core::mem::take(&mut self.blocks)
    }

    /// Abandons every sealed node (NR's deliberate leak) while recycling
    /// the block boxes. `Retired` has no `Drop`, so clearing the lengths
    /// leaks exactly the recorded allocations.
    pub(crate) fn leak_sealed_blocks(&mut self) {
        while let Some(mut b) = self.blocks.pop() {
            // SAFETY: truncation abandons (leaks) the records, which is
            // this method's contract; nothing is double-read.
            unsafe { b.set_len(0) };
            self.free.push(b);
        }
        self.sealed_nodes = 0;
    }

    /// Appends already-accounted *sealed blocks* (orphan adoption and
    /// stealing) — each block is one pointer move; extrema and retire
    /// order inside every block survive intact, and a later
    /// `seal_partial` cannot recount the members.
    pub(crate) fn absorb_blocks(&mut self, blocks: impl IntoIterator<Item = Box<RetireBatch>>) {
        for b in blocks {
            debug_assert!(!b.is_empty(), "orphan blocks are never empty");
            self.sealed_nodes += b.len();
            self.blocks.push(b);
        }
    }

    /// Moves every node (sealed and fill) out through `f`, recycling the
    /// emptied blocks. Drain order is unspecified.
    pub(crate) fn drain_all(&mut self, mut f: impl FnMut(Retired)) {
        while let Some(mut b) = self.blocks.pop() {
            while let Some(r) = b.pop() {
                f(r);
            }
            self.free.push(b);
        }
        self.sealed_nodes = 0;
        for fill in &mut self.fills {
            while let Some(r) = fill.pop() {
                self.fill_nodes -= 1;
                f(r);
            }
        }
    }
}

/// Single-owner cell holding a thread's [`RetireList`].
///
/// Soundness: only the thread that claimed the enclosing tid (enforced by
/// [`DomainBase::claim`]'s panic-on-double-claim) may call [`Self::get`].
pub(crate) struct RetireSlot(UnsafeCell<RetireList>);

// SAFETY: access is confined to the owning thread by the registration
// protocol; the cell itself is never aliased across threads.
unsafe impl Sync for RetireSlot {}

impl RetireSlot {
    /// The constructor every scheme uses: the seal threshold comes from
    /// the config.
    pub(crate) fn for_cfg(cfg: &SmrConfig) -> Self {
        RetireSlot(UnsafeCell::new(RetireList::new(cfg.effective_batch())))
    }

    /// # Safety
    ///
    /// Caller must be the registered owner of the enclosing tid.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self) -> &mut RetireList {
        // SAFETY: single-owner contract above.
        unsafe { &mut *self.0.get() }
    }
}

/// Reusable per-thread buffers for reclamation passes.
///
/// Every buffer a pass needs lives here and is only ever `clear()`ed, never
/// dropped, so a steady-state pass performs **zero heap allocations** once
/// each buffer has grown to its working size (typically after the first
/// pass). One instance per domain thread, owner-only access via
/// [`ScratchSlot`].
#[derive(Default)]
pub(crate) struct ReclaimScratch {
    /// Collected publish counters (`collectPublishedCounters`) or restart
    /// sequence numbers (NBR phase 1).
    pub counters: Vec<u64>,
    /// Second counter snapshot (NBR's operation sequence numbers).
    pub op_counters: Vec<u64>,
    /// Sorted, deduplicated reservation words (pointers or eras).
    pub reserved: Vec<u64>,
    /// Announced `[lower, upper]` epoch intervals (IBR).
    pub intervals: Vec<(u64, u64)>,
    /// Non-stalled subset of `reserved` (emergency-rung era sweeps).
    pub active: Vec<u64>,
    /// Non-stalled subset of `intervals` (emergency-rung IBR sweeps).
    pub active_intervals: Vec<(u64, u64)>,
}

/// Single-owner cell holding a thread's [`ReclaimScratch`] (same ownership
/// discipline as [`RetireSlot`]).
pub(crate) struct ScratchSlot(UnsafeCell<ReclaimScratch>);

// SAFETY: access is confined to the owning thread by the registration
// protocol, exactly as for `RetireSlot`.
unsafe impl Sync for ScratchSlot {}

impl ScratchSlot {
    pub(crate) fn new() -> Self {
        ScratchSlot(UnsafeCell::new(ReclaimScratch::default()))
    }

    /// # Safety
    ///
    /// Caller must be the registered owner of the enclosing tid.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn get(&self) -> &mut ReclaimScratch {
        // SAFETY: single-owner contract above.
        unsafe { &mut *self.0.get() }
    }
}

/// Clocks per [`EpochClocks`] stripe. A reclaimer pass fully scans only
/// its own stripe plus one rotating stripe, then takes the max over the
/// per-stripe summary words — O(threads / 8 + 16) per pass instead of
/// O(threads).
pub(crate) const EPOCH_STRIPE: usize = 8;

/// Per-thread epoch clocks with a reclaimer-aggregated global (see the
/// module-level invariant).
///
/// ## Striped aggregation
///
/// Clocks are grouped into stripes of [`EPOCH_STRIPE`]; each stripe has a
/// monotone summary word holding the largest clock a reclaimer has
/// observed in it. A pass refreshes (a) the caller's own stripe — the
/// progress guarantee: the caller's just-jumped clock always reaches the
/// aggregate — and (b) one stripe chosen by a rotating cursor, the
/// *sampling* that bounds how stale an idle peer's ticks can stay: any
/// clock value is folded into the global within `nstripes` passes. Wide
/// domains therefore pay `2 × EPOCH_STRIPE + threads / EPOCH_STRIPE` loads
/// per pass rather than `threads`. Staleness is safe for the same reason
/// the whole design is: readers announce, and retirers tag, the same
/// monotone global word, so a lagging aggregate only delays frees.
pub(crate) struct EpochClocks {
    /// The globally visible epoch. Written **only** by
    /// [`Self::advance_max_scan`] (reclaimer passes).
    global: CachePadded<AtomicU64>,
    /// One private clock per domain tid, each on its own line; bumped by
    /// its owner with a relaxed store, read by reclaimers during stripe
    /// refreshes.
    local: Box<[CachePadded<AtomicU64>]>,
    /// Per-stripe maxima, `fetch_max`-maintained by reclaimer passes
    /// (monotone, like the clocks themselves).
    stripe_max: Box<[CachePadded<AtomicU64>]>,
    /// Rotating refresh cursor (reclaimer-side only).
    rotor: CachePadded<AtomicU64>,
}

impl EpochClocks {
    pub(crate) fn new(nthreads: usize) -> Self {
        let mut local = Vec::with_capacity(nthreads);
        local.resize_with(nthreads, || CachePadded::new(AtomicU64::new(1)));
        let nstripes = nthreads.div_ceil(EPOCH_STRIPE).max(1);
        let mut stripe_max = Vec::with_capacity(nstripes);
        stripe_max.resize_with(nstripes, || CachePadded::new(AtomicU64::new(1)));
        EpochClocks {
            global: CachePadded::new(AtomicU64::new(1)),
            local: local.into_boxed_slice(),
            stripe_max: stripe_max.into_boxed_slice(),
            rotor: CachePadded::new(AtomicU64::new(0)),
        }
    }

    /// The current global epoch (readers announce this; retirers tag it).
    #[inline(always)]
    pub(crate) fn current(&self) -> u64 {
        self.global.load(Ordering::Acquire)
    }

    /// Owner-only clock bump: a relaxed store to the owner's own cache
    /// line — the op path's replacement for the shared `fetch_add`.
    #[inline]
    pub(crate) fn tick(&self, tid: usize) {
        let c = self.local[tid].load(Ordering::Relaxed);
        self.local[tid].store(c + 1, Ordering::Relaxed);
    }

    /// Folds stripe `s`'s clocks into its summary word.
    fn refresh_stripe(&self, s: usize) {
        let start = s * EPOCH_STRIPE;
        let end = (start + EPOCH_STRIPE).min(self.local.len());
        let mut m = 0u64;
        for c in &self.local[start..end] {
            m = m.max(c.load(Ordering::Relaxed));
        }
        self.stripe_max[s].fetch_max(m, Ordering::Relaxed);
    }

    /// Reclaimer-pass aggregation: jump the caller's clock past the
    /// current global (so the aggregated max strictly exceeds it — every
    /// pass advances the epoch, the progress guarantee the old shared
    /// `fetch_add` gave), refresh the caller's stripe and one rotating
    /// stripe, max the stripe summaries, and `fetch_max` the result into
    /// the global word — the only place the global is ever written.
    /// Returns the post-aggregation epoch.
    ///
    /// Without the jump, a reclaimer whose private clock lags the maximum
    /// (a formerly-hot peer ticked far ahead, then went idle) would leave
    /// `fetch_max` a no-op for `max - own` consecutive passes, pinning
    /// every epoch-based free at the stale maximum.
    /// Epoch-cadence decay note: this runs only from *full* passes, so on
    /// a decayed domain (where only 1 in `2^decay` triggered passes is
    /// full) the whole aggregation — own stripe, rotating stripe, global
    /// `fetch_max` — already runs at the decayed rate. A lagging peer's
    /// clock is folded in within `2^decay × nstripes` full-pass
    /// opportunities, and every *executed* pass still strictly advances.
    pub(crate) fn advance_max_scan(&self, tid: usize) -> u64 {
        let cur = self.global.load(Ordering::Acquire);
        let mine = self.local[tid].load(Ordering::Relaxed);
        self.local[tid].store(mine.max(cur) + 1, Ordering::Relaxed);
        let nstripes = self.stripe_max.len();
        self.refresh_stripe(tid / EPOCH_STRIPE);
        if nstripes > 1 {
            let r = self.rotor.fetch_add(1, Ordering::Relaxed) as usize % nstripes;
            self.refresh_stripe(r);
        }
        let mut m = 0u64;
        for s in self.stripe_max.iter() {
            m = m.max(s.load(Ordering::Relaxed));
        }
        let prev = self.global.fetch_max(m, Ordering::AcqRel);
        prev.max(m)
    }

    /// Test observability: a thread's private clock value.
    #[cfg(test)]
    pub(crate) fn local_of(&self, tid: usize) -> u64 {
        self.local[tid].load(Ordering::Relaxed)
    }
}

/// A sealed block parked in the stalled-reader quarantine: every member
/// is provably pinned **only** by `blocker_tid`'s reservation word, so
/// sweeps stop re-scanning it until the blocker moves or dies.
pub(crate) struct QuarantinedBlock {
    /// The stalled participant whose reservation pins the whole block.
    pub blocker_tid: usize,
    /// The reservation word (epoch / era / interval lower bound) observed
    /// stalled; the block is released the moment the blocker's word
    /// changes, clears, or the blocker deregisters/is reaped.
    pub pinned_word: u64,
    /// The parked block, extrema intact.
    pub block: Box<RetireBatch>,
}

/// One orphan-list stripe: parked sealed blocks from threads whose tid
/// hashes here, padded so neighboring stripes never false-share.
#[allow(clippy::vec_box)]
type OrphanStripe = CachePadded<Mutex<Vec<Box<RetireBatch>>>>;

/// State common to all reclamation domains.
pub(crate) struct DomainBase {
    pub cfg: SmrConfig,
    pub stats: Arc<DomainStats>,
    /// Per-participant pinned-reservation age, fed by scheme min-scans;
    /// drives the emergency-rung stalled-reader detection.
    pub stall: StallTracker,
    occupied: Box<[AtomicBool]>,
    /// Domain tid → global thread id + 1 (0 = unbound). Used by
    /// signal-based schemes to ping participants.
    gtid_of: Box<[AtomicUsize]>,
    /// Quarantined (poisoned) nodes when `cfg.quarantine` is set — the
    /// use-after-free detector, unrelated to the pressure quarantine.
    quarantine: Mutex<Vec<Retired>>,
    /// Stalled-reader quarantine (pressure emergency rung): whole sealed
    /// blocks keyed by the blocking reservation, re-absorbed into a
    /// reclaimer's list by [`Self::reclaim_released_quarantine`] the
    /// moment the blocker advances or is reaped. Quarantined nodes leave
    /// the gauge's actionable count but are still owed to the allocator
    /// (freed on release-and-sweep, or at domain drop).
    pressure_quarantine: Mutex<Vec<QuarantinedBlock>>,
    /// Lock-free node-count hint for `pressure_quarantine` (skip the
    /// mutex while nothing is parked — the permanent common case).
    pq_hint: AtomicUsize,
    /// Retire-list leftovers from threads that unregistered while some of
    /// their garbage was still reserved by others, parked as the **sealed
    /// blocks themselves** — extrema intact, no record copied. Striped by
    /// parking tid so park/adopt/steal from different threads never
    /// contend on one mutex during reap storms or
    /// quarantine drains. Drained (bounded, block-at-a-time) by joining
    /// threads via [`Self::adopt_orphan_chunk`] and by reclaimer passes
    /// via [`Self::steal_orphan_chunk`]; any remainder is freed on domain
    /// drop.
    orphans: Box<[OrphanStripe]>,
    /// `orphans.len() - 1` (stripe count is a power of two).
    orphan_mask: usize,
    /// Lock-free *node*-count hint summed over every orphan stripe, so
    /// every sweep can skip the mutexes when no orphans exist (the
    /// common case on stable memberships).
    orphan_hint: AtomicUsize,
    /// Per-tid reap-in-progress flags: the CAS in [`Self::try_begin_reap`]
    /// elects a single reaper for a dead participant's single-owner state
    /// ([`RetireSlot`]), so concurrent reclaimers never alias it.
    reaping: Box<[AtomicBool]>,
}

impl DomainBase {
    pub(crate) fn new(cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        assert!(n >= 1, "domain needs at least one thread slot");
        let mut occupied = Vec::with_capacity(n);
        occupied.resize_with(n, || AtomicBool::new(false));
        let mut gtids = Vec::with_capacity(n);
        gtids.resize_with(n, || AtomicUsize::new(0));
        let mut reaping = Vec::with_capacity(n);
        reaping.resize_with(n, || AtomicBool::new(false));
        let stripes = orphan_stripes(n);
        let mut orphans = Vec::with_capacity(stripes);
        orphans.resize_with(stripes, || CachePadded::new(Mutex::new(Vec::new())));
        DomainBase {
            stats: Arc::new(DomainStats::with_pressure(n, cfg.pressure_gauge())),
            stall: StallTracker::new(n),
            cfg,
            occupied: occupied.into_boxed_slice(),
            gtid_of: gtids.into_boxed_slice(),
            quarantine: Mutex::new(Vec::new()),
            pressure_quarantine: Mutex::new(Vec::new()),
            pq_hint: AtomicUsize::new(0),
            orphans: orphans.into_boxed_slice(),
            orphan_mask: stripes - 1,
            orphan_hint: AtomicUsize::new(0),
            reaping: reaping.into_boxed_slice(),
        }
    }

    pub(crate) fn claim(&self, tid: usize) {
        assert!(
            tid < self.cfg.max_threads,
            "tid {tid} out of range (max_threads = {})",
            self.cfg.max_threads
        );
        let was = self.occupied[tid].swap(true, Ordering::AcqRel);
        assert!(!was, "tid {tid} is already registered in this domain");
    }

    pub(crate) fn release(&self, tid: usize) {
        // A departing participant can no longer stall anyone; its slot's
        // pinned-age history must not taint the next claimant.
        self.stall.clear(tid);
        self.occupied[tid].store(false, Ordering::Release);
    }

    pub(crate) fn is_registered(&self, tid: usize) -> bool {
        self.occupied[tid].load(Ordering::Acquire)
    }

    pub(crate) fn bind_gtid(&self, tid: usize, gtid: usize) {
        self.gtid_of[tid].store(gtid + 1, Ordering::Release);
    }

    pub(crate) fn clear_gtid(&self, tid: usize) {
        self.gtid_of[tid].store(0, Ordering::Release);
    }

    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn gtid(&self, tid: usize) -> Option<usize> {
        match self.gtid_of[tid].load(Ordering::Acquire) {
            0 => None,
            g => Some(g - 1),
        }
    }

    /// Elects the caller as the unique reaper of `tid`'s state. Must be
    /// balanced by [`Self::end_reap`]; a `false` return means another
    /// reclaimer holds (or already completed) the reap.
    pub(crate) fn try_begin_reap(&self, tid: usize) -> bool {
        self.reaping[tid]
            .compare_exchange(false, true, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }

    /// Releases the reap election taken by [`Self::try_begin_reap`].
    pub(crate) fn end_reap(&self, tid: usize) {
        self.reaping[tid].store(false, Ordering::Release);
    }

    /// Recovers the domain-side state of a participant that died without
    /// deregistering: seals and parks its pending retirements as orphans
    /// (nothing is leaked — adopters filter them against reservations like
    /// any other garbage), unbinds its gtid, and frees the domain tid for
    /// reuse. The slot release is last: the tid must not be reclaimable
    /// while its retire list is still being moved.
    ///
    /// Caller contract: the caller won [`Self::try_begin_reap`] for
    /// `dead_tid` *and* the process-global registry confirmed the thread
    /// dead (one-shot `Registry::reap`), making the caller the unique
    /// accessor of the dead thread's single-owner state; `list` is that
    /// thread's retire list.
    pub(crate) fn reap_participant(
        &self,
        reaper_tid: usize,
        dead_tid: usize,
        list: &mut RetireList,
    ) {
        self.orphan_remaining(dead_tid, list);
        self.clear_gtid(dead_tid);
        self.release(dead_tid);
        self.stats
            .shard(reaper_tid)
            .participants_reaped
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Frees (or quarantines) one retired object **without** stats — the
    /// building block under [`Self::free_now`] and the batched sweep.
    ///
    /// # Safety
    ///
    /// The scheme must have proven no thread can access the object.
    pub(crate) unsafe fn free_raw(&self, r: Retired) {
        if self.cfg.quarantine {
            r.header().poison();
            self.quarantine.lock().push(r);
        } else {
            // SAFETY: forwarded contract.
            unsafe { r.free() };
        }
    }

    /// Frees (or quarantines) one retired object, accounting it on the
    /// calling reclaimer's stat shard.
    ///
    /// # Safety
    ///
    /// The scheme must have proven no thread can access the object, and
    /// `tid` must be the caller's registered domain thread id.
    pub(crate) unsafe fn free_now(&self, tid: usize, r: Retired) {
        let bytes = r.size() as u64;
        let shard = self.stats.shard(tid);
        shard.freed_nodes.fetch_add(1, Ordering::Relaxed);
        shard.freed_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.stats.pressure().on_freed(1);
        // SAFETY: forwarded contract.
        unsafe { self.free_raw(r) };
    }

    /// Frees every node of one sealed block with a single stats update
    /// (Hyaline's batch settlement).
    ///
    /// # Safety
    ///
    /// Same contract as [`Self::free_now`] for every member.
    pub(crate) unsafe fn free_block(&self, tid: usize, block: &mut RetireBatch) {
        let mut nodes = 0u64;
        let mut bytes = 0u64;
        while let Some(r) = block.pop() {
            nodes += 1;
            bytes += r.size() as u64;
            // SAFETY: forwarded contract.
            unsafe { self.free_raw(r) };
        }
        if nodes > 0 {
            let shard = self.stats.shard(tid);
            shard.freed_nodes.fetch_add(nodes, Ordering::Relaxed);
            shard.freed_bytes.fetch_add(bytes, Ordering::Relaxed);
            self.stats.pressure().on_freed(nodes as usize);
        }
    }

    /// Unregistration hand-off: seals every non-empty fill bin (with its
    /// amortized accounting — no node is parked unsealed, partial batches
    /// are never leaked) and parks the sealed blocks **whole** on the
    /// domain orphan list: one pointer move per block, extrema intact, no
    /// per-node copying.
    pub(crate) fn orphan_remaining(&self, tid: usize, list: &mut RetireList) {
        seal_and_account(self, tid, list);
        if list.is_empty() {
            return;
        }
        let nodes = list.len();
        let blocks = list.take_blocks();
        let mut orphans = self.orphans[tid & self.orphan_mask].lock();
        // Parked newest-first so chunk steals drain oldest-first from the
        // Vec TAIL — O(chunk) per steal, no front-shift of the remainder.
        orphans.extend(blocks.into_iter().rev());
        drop(orphans);
        self.orphan_hint.fetch_add(nodes, Ordering::Relaxed);
    }

    /// Moves up to [`ORPHAN_CHUNK_BLOCKS`] orphaned blocks into `list`
    /// (already accounted; oldest-first within a parked batch) and
    /// returns the node count. Each block is absorbed as one pointer —
    /// O(1) per block, its summary untouched — so the adopter's next sweep
    /// range-tests stolen blocks from their surviving extrema.
    fn drain_orphan_chunk(&self, tid: usize, list: &mut RetireList) -> usize {
        if self.orphan_hint.load(Ordering::Relaxed) == 0 {
            return 0;
        }
        // Start at the caller's own stripe (lowest contention — its own
        // parks land there) and scan the rest until the chunk is full, so
        // a single drainer still empties every stripe eventually.
        let mut taken = 0usize;
        let mut nodes = 0usize;
        for i in 0..=self.orphan_mask {
            if taken >= ORPHAN_CHUNK_BLOCKS {
                break;
            }
            let mut orphans = self.orphans[(tid + i) & self.orphan_mask].lock();
            let take = orphans.len().min(ORPHAN_CHUNK_BLOCKS - taken);
            if take == 0 {
                continue;
            }
            let at = orphans.len() - take;
            for b in &orphans[at..] {
                nodes += b.len();
            }
            list.absorb_blocks(orphans.drain(at..));
            taken += take;
        }
        if nodes > 0 {
            self.orphan_hint.fetch_sub(nodes, Ordering::Relaxed);
        }
        nodes
    }

    /// Registration-side orphan adoption: moves up to
    /// [`ORPHAN_CHUNK_BLOCKS`] orphaned blocks into the joining thread's
    /// retire list, bounding orphan memory on long-lived domains with
    /// thread churn.
    pub(crate) fn adopt_orphan_chunk(&self, tid: usize, list: &mut RetireList) {
        let n = self.drain_orphan_chunk(tid, list);
        if n > 0 {
            self.stats
                .shard(tid)
                .orphans_adopted
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Reclaimer-side orphan stealing: every sweep adopts up to one
    /// [`ORPHAN_CHUNK_BLOCKS`]-block chunk, so orphans drain even when the thread
    /// membership is static (registration-time adoption alone only helps
    /// under churn). The pass that steals filters the stolen nodes with
    /// its own keep predicate — exactly as safe as for its own garbage,
    /// since every predicate covers all threads' reservations.
    pub(crate) fn steal_orphan_chunk(&self, tid: usize, list: &mut RetireList) {
        let n = self.drain_orphan_chunk(tid, list);
        if n > 0 {
            self.stats
                .shard(tid)
                .orphans_stolen
                .fetch_add(n as u64, Ordering::Relaxed);
        }
    }

    /// Releases every pressure-quarantined block whose blocker has moved
    /// on — deregistered, reaped, or no longer holding its pinned
    /// reservation word (`blocked(tid, word)` is the scheme's "still
    /// pinned by exactly this reservation" test). Released blocks are
    /// absorbed **directly into the calling reclaimer's list**, so the
    /// very pass that observes the release also filters and frees them:
    /// a cleared stall drains within one pass. Runs at the start of every
    /// full pass; the lock-free hint makes it a no-op while nothing is
    /// parked.
    pub(crate) fn reclaim_released_quarantine(
        &self,
        tid: usize,
        list: &mut RetireList,
        mut blocked: impl FnMut(usize, u64) -> bool,
    ) {
        if self.pq_hint.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut q = self.pressure_quarantine.lock();
        let mut nodes = 0usize;
        let mut blocks = 0u64;
        let mut i = 0usize;
        while i < q.len() {
            let qb = &q[i];
            if self.is_registered(qb.blocker_tid) && blocked(qb.blocker_tid, qb.pinned_word) {
                i += 1;
                continue;
            }
            let qb = q.swap_remove(i);
            nodes += qb.block.len();
            blocks += 1;
            list.absorb_blocks([qb.block]);
        }
        drop(q);
        if nodes > 0 {
            self.pq_hint.fetch_sub(blocks as usize, Ordering::Relaxed);
            self.stats
                .shard(tid)
                .blocks_unquarantined
                .fetch_add(blocks, Ordering::Relaxed);
            note_escalation(self, tid, self.stats.pressure().on_unquarantined(nodes));
        }
    }

    /// Number of quarantined nodes (test observability).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn quarantine_len(&self) -> usize {
        self.quarantine.lock().len()
    }

    /// Blocks currently parked in the stalled-reader quarantine.
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pressure_quarantine_len(&self) -> usize {
        self.pq_hint.load(Ordering::Relaxed)
    }

    /// Number of parked orphan nodes (test observability).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn orphan_len(&self) -> usize {
        self.orphans
            .iter()
            .map(|s| s.lock().iter().map(|b| b.len()).sum::<usize>())
            .sum()
    }
}

impl Drop for DomainBase {
    fn drop(&mut self) {
        // Skip the discipline check when unwinding from an unrelated panic
        // (a panicking destructor would abort the process).
        if !std::thread::panicking() {
            debug_assert!(
                self.occupied.iter().all(|o| !o.load(Ordering::Acquire)),
                "domain dropped while threads are still registered"
            );
        }
        // All participants are gone: quarantined and orphaned nodes can be
        // deallocated for real. No tid exists here — count on the overflow
        // shard.
        for r in self.quarantine.get_mut().drain(..) {
            // SAFETY: no registered threads remain, so no reader exists.
            unsafe { r.free() };
        }
        let overflow = self.stats.overflow();
        for stripe in self.orphans.iter_mut() {
            for mut b in stripe.get_mut().drain(..) {
                while let Some(r) = b.pop() {
                    overflow.freed_nodes.fetch_add(1, Ordering::Relaxed);
                    overflow
                        .freed_bytes
                        .fetch_add(r.size() as u64, Ordering::Relaxed);
                    // SAFETY: as above.
                    unsafe { r.free() };
                }
            }
        }
        // Stalled-reader quarantine: the blockers are gone with everyone
        // else, so the parked blocks are freeable — conservation holds
        // (allocated == freed) across a drop with a live quarantine.
        for qb in self.pressure_quarantine.get_mut().drain(..) {
            let mut b = qb.block;
            while let Some(r) = b.pop() {
                overflow.freed_nodes.fetch_add(1, Ordering::Relaxed);
                overflow
                    .freed_bytes
                    .fetch_add(r.size() as u64, Ordering::Relaxed);
                // SAFETY: as above.
                unsafe { r.free() };
            }
        }
    }
}

/// Books an upward pressure transition on the acting thread's stat shard:
/// one trip counter per rung crossed. The gauge reports each transition to
/// exactly one caller ([`crate::pressure::PressureGauge`]'s CAS settle),
/// so the trip counters count state-machine transitions, not update calls.
pub(crate) fn note_escalation(base: &DomainBase, tid: usize, esc: Option<Escalation>) {
    let Some(esc) = esc else { return };
    let shard = base.stats.shard(tid);
    if esc.crossed(PressureRung::Soft) {
        shard.pressure_soft_trips.fetch_add(1, Ordering::Relaxed);
    }
    if esc.crossed(PressureRung::Hard) {
        shard.pressure_hard_trips.fetch_add(1, Ordering::Relaxed);
    }
    if esc.crossed(PressureRung::Emergency) {
        shard
            .pressure_emergency_trips
            .fetch_add(1, Ordering::Relaxed);
    }
}

/// The amortized accounting every seal event owes: one `retired_nodes`
/// bump for the sealed members and one `batches_sealed` event per block —
/// plus the pressure gauge's retire-side feed (sealed nodes are exactly the
/// gauge's unit of actionable backlog).
/// Shared by [`push_retired`], [`seal_and_account`] and NR's leak path.
pub(crate) fn account_seal(base: &DomainBase, tid: usize, outcome: SealOutcome) {
    let shard = base.stats.shard(tid);
    shard
        .retired_nodes
        .fetch_add(outcome.nodes as u64, Ordering::Relaxed);
    note_escalation(base, tid, base.stats.pressure().on_retired(outcome.nodes));
    shard
        .batches_sealed
        .fetch_add(outcome.blocks, Ordering::Relaxed);
}

/// Seals every non-empty fill bin and performs the amortized accounting
/// (the same bumps a hot-path seal gets in [`push_retired`], once per
/// sealed block).
pub(crate) fn seal_and_account(base: &DomainBase, tid: usize, list: &mut RetireList) {
    let outcome = list.seal_partial();
    if outcome.nodes > 0 {
        account_seal(base, tid, outcome);
    }
}

/// The shared retire fast path: push into the node's slab fill bin; on a
/// seal, run the amortized accounting and report whether a reclamation
/// pass is due (the caller then runs its scheme's pass).
///
/// A pass is due when the list is over `reclaim_freq` **and** a full
/// `reclaim_freq` of new retires arrived since the last trigger — so a
/// pinned list (stalled reader) costs one full-list sweep per
/// `reclaim_freq` retires, not one per seal.
#[inline]
pub(crate) fn push_retired(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    r: Retired,
) -> bool {
    match list.push(r) {
        None => false,
        Some(outcome) => {
            account_seal(base, tid, outcome);
            let freq = base.cfg.reclaim_freq;
            if list.len() >= freq && list.sealed_since_trigger >= freq {
                list.note_pass();
                true
            } else {
                false
            }
        }
    }
}

/// A sweep's verdict for one sealed block, decided **before** any record
/// is touched (see the module-level lifecycle).
pub(crate) enum BlockPlan {
    /// Every member survives: keep the block without moving a record.
    KeepAll,
    /// Every member is freeable: free the block whole (one stats update).
    FreeAll,
    /// Mixed: bit `i` set means slot `i` survives; compact in place.
    Mask(u32),
    /// Every member is pinned **only** by `blocker_tid`'s stalled
    /// reservation `word` (emergency rung): park the block whole in the
    /// domain's stalled-reader quarantine so later sweeps stop re-scanning
    /// it, until [`DomainBase::reclaim_released_quarantine`] hands it
    /// back. Not counted freed; leaves the gauge's actionable count.
    Quarantine {
        /// The stalled participant pinning the block.
        blocker_tid: usize,
        /// Its observed reservation word (release key).
        word: u64,
    },
}

/// All-ones keep mask for a block of `n` records.
#[inline]
fn full_mask(n: usize) -> u32 {
    if n >= 32 {
        u32::MAX
    } else {
        (1u32 << n) - 1
    }
}

/// Block-granular sweep driver under every reclamation pass: seals every
/// non-empty fill bin, steals one orphan chunk, then walks sealed blocks in retire
/// order, executing the [`BlockPlan`] `plan` returns for each. Survivors
/// stay **in their original retire order** within and across blocks, and
/// per-node masks that turn out to cover (or clear) a whole block are
/// normalized onto the no-touch whole-block paths. Allocation-free:
/// emptied blocks recycle into the list's free pool. Returns the number
/// freed.
///
/// # Safety
///
/// The caller's scheme must have proven that every entry the plan rejects
/// is unreachable by all threads, and `tid` must be the caller's
/// registered domain thread id (it owns `list`).
pub(crate) unsafe fn sweep_blocks(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    mut plan: impl FnMut(&mut RetireBatch) -> BlockPlan,
) -> usize {
    seal_and_account(base, tid, list);
    // This sweep counts as the pass the trigger pacing was waiting for
    // (flush-driven sweeps reset the budget too).
    list.note_pass();
    // Reclaimer-side orphan adoption: stolen nodes join the sealed blocks
    // and are filtered by this very pass.
    base.steal_orphan_chunk(tid, list);
    let shard = base.stats.shard(tid);
    let nblocks = list.blocks.len();
    let blocks_ptr = list.blocks.as_mut_ptr();
    // Defensive: if a free panics mid-sweep, neither vector may expose
    // half-moved entries. Truncating first leaks not-yet-rewritten blocks
    // on unwind instead of double-freeing them (`Retired` and
    // `RetireBatch` have no Drop impls).
    // SAFETY: elements stay initialized; we manage them manually below.
    unsafe { list.blocks.set_len(0) };
    let mut write_block = 0usize;
    let mut total_freed = 0usize;
    let mut kept_whole = 0u64;
    let mut freed_whole = 0u64;
    // Emergency-rung parking collects locally and publishes once after the
    // loop: one quarantine lock per sweep, none at all on the common path.
    let mut quarantined: Vec<QuarantinedBlock> = Vec::new();
    let mut quarantined_nodes = 0usize;
    for read_block in 0..nblocks {
        // SAFETY: `read_block < nblocks`, the original initialized length.
        let mut b = unsafe { core::ptr::read(blocks_ptr.add(read_block)) };
        let n = b.len();
        let full = full_mask(n);
        let decision = match plan(&mut b) {
            BlockPlan::Mask(m) if m & full == full => BlockPlan::KeepAll,
            BlockPlan::Mask(m) if m & full == 0 => BlockPlan::FreeAll,
            d => d,
        };
        match decision {
            BlockPlan::KeepAll => {
                // Untouched: the block keeps its summary for the next
                // pass — repeatedly pinned blocks are re-range-tested from
                // the cached extrema alone.
                kept_whole += 1;
                // SAFETY: `write_block <= read_block < nblocks`; slot was
                // already moved out.
                unsafe { core::ptr::write(blocks_ptr.add(write_block), b) };
                write_block += 1;
            }
            BlockPlan::FreeAll => {
                // Whole-slab settlement: a wholly-freed block whose pointer
                // extrema share one slab-aligned base (which, since slot
                // spans never straddle slabs, proves every member is a slot
                // of that slab) settles against its slab in one step — the
                // payloads drop in place, then a single batched `freed`
                // update replaces the per-slot RMW + settle-probe chain.
                // The quarantine config parks nodes instead of freeing, so
                // it keeps the general per-record path.
                let slab_base = if n > 0 && !base.cfg.quarantine {
                    let (lo, hi) = b.ptr_range();
                    let slab_mask = !(SLAB_BYTES as u64 - 1);
                    (lo & slab_mask == hi & slab_mask && b.nodes()[0].is_slab_backed())
                        .then_some((lo & slab_mask) as usize)
                } else {
                    None
                };
                let ptr = b.as_mut_ptr();
                // SAFETY: defensive truncation; records read out below.
                unsafe { b.set_len(0) };
                let mut freed_bytes = 0u64;
                if let Some(slab) = slab_base {
                    for read in 0..n {
                        // SAFETY: `read < n`, the original initialized
                        // length.
                        let r = unsafe { core::ptr::read(ptr.add(read)) };
                        freed_bytes += r.size() as u64;
                        // SAFETY: proven unreachable; slab-backed per the
                        // confinement test — slot returned in the batch
                        // settle below.
                        unsafe { r.drop_payload_for_batch() };
                    }
                    // SAFETY: all `n` slots belong to `slab`, payloads
                    // dropped above, each counted exactly once.
                    unsafe { crate::slab::free_slots_batch(slab, n as u32) };
                    shard.slab_frees_whole.fetch_add(1, Ordering::Relaxed);
                } else {
                    for read in 0..n {
                        // SAFETY: `read < n`, the original initialized
                        // length.
                        let r = unsafe { core::ptr::read(ptr.add(read)) };
                        freed_bytes += r.size() as u64;
                        // SAFETY: forwarded contract — proven unreachable.
                        unsafe { base.free_raw(r) };
                    }
                }
                shard.freed_nodes.fetch_add(n as u64, Ordering::Relaxed);
                shard.freed_bytes.fetch_add(freed_bytes, Ordering::Relaxed);
                total_freed += n;
                freed_whole += 1;
                list.free.push(b);
            }
            BlockPlan::Mask(m) => {
                let ptr = b.as_mut_ptr();
                // SAFETY: same defensive truncation at block granularity.
                unsafe { b.set_len(0) };
                let mut write = 0usize;
                let mut freed_nodes = 0u64;
                let mut freed_bytes = 0u64;
                for read in 0..n {
                    // SAFETY: `read < n`, the original initialized length.
                    let r = unsafe { core::ptr::read(ptr.add(read)) };
                    if m & (1u32 << read) != 0 {
                        if write != read {
                            // SAFETY: `write <= read < n`; slot moved out.
                            unsafe { core::ptr::write(ptr.add(write), r) };
                        }
                        // else: the slot already holds exactly these bits,
                        // and `Retired` has no Drop, so letting the copy
                        // go is free.
                        write += 1;
                    } else {
                        freed_bytes += r.size() as u64;
                        freed_nodes += 1;
                        // SAFETY: forwarded contract — proven unreachable.
                        unsafe { base.free_raw(r) };
                    }
                }
                // SAFETY: the first `write` slots hold initialized
                // survivors (`set_len` also drops the stale summary).
                unsafe { b.set_len(write) };
                shard.freed_nodes.fetch_add(freed_nodes, Ordering::Relaxed);
                shard.freed_bytes.fetch_add(freed_bytes, Ordering::Relaxed);
                total_freed += freed_nodes as usize;
                // Mixed by normalization: at least one survivor remains.
                debug_assert!(write > 0);
                // SAFETY: as in the KeepAll arm.
                unsafe { core::ptr::write(blocks_ptr.add(write_block), b) };
                write_block += 1;
            }
            BlockPlan::Quarantine { blocker_tid, word } => {
                // Parked whole: no record is touched, the block leaves the
                // caller's list (and its re-scan loop) until the blocker's
                // reservation moves.
                quarantined_nodes += n;
                quarantined.push(QuarantinedBlock {
                    blocker_tid,
                    pinned_word: word,
                    block: b,
                });
            }
        }
    }
    // SAFETY: the first `write_block` slots hold initialized blocks.
    unsafe { list.blocks.set_len(write_block) };
    list.sealed_nodes -= total_freed + quarantined_nodes;
    if freed_whole > 0 {
        shard
            .blocks_freed_whole
            .fetch_add(freed_whole, Ordering::Relaxed);
    }
    if kept_whole > 0 {
        shard
            .blocks_kept_whole
            .fetch_add(kept_whole, Ordering::Relaxed);
    }
    if !quarantined.is_empty() {
        let qblocks = quarantined.len();
        shard
            .blocks_quarantined
            .fetch_add(qblocks as u64, Ordering::Relaxed);
        base.pressure_quarantine.lock().extend(quarantined);
        base.pq_hint.fetch_add(qblocks, Ordering::Relaxed);
        base.stats.pressure().on_quarantined(quarantined_nodes);
    }
    if total_freed > 0 {
        base.stats.pressure().on_freed(total_freed);
    }
    // Degradation rung 4: under hard pressure the recycled-block pool is
    // ballast — drop it entirely; otherwise honor the configured cap
    // (`0` = unbounded).
    let cap = if base.stats.pressure().rung() >= PressureRung::Hard {
        0
    } else if base.cfg.free_pool_cap == 0 {
        usize::MAX
    } else {
        base.cfg.free_pool_cap
    };
    if list.free.len() > cap {
        let trimmed = (list.free.len() - cap) as u64;
        list.free.truncate(cap);
        shard
            .pool_blocks_trimmed
            .fetch_add(trimmed, Ordering::Relaxed);
    }
    total_freed
}

/// Keep mask of a block under a per-node predicate: bit `i` set means
/// slot `i` survives.
#[inline]
pub(crate) fn keep_mask(b: &RetireBatch, mut keep: impl FnMut(&Retired) -> bool) -> u32 {
    let mut mask = 0u32;
    for (i, r) in b.nodes().iter().enumerate() {
        if keep(r) {
            mask |= 1u32 << i;
        }
    }
    mask
}

/// The words of sorted `reserved` inside `[lo, hi]` — the only ones that
/// can hit a block whose keys span that range.
#[inline]
fn reserved_window(reserved: &[u64], lo: u64, hi: u64) -> &[u64] {
    let start = reserved.partition_point(|&w| w < lo);
    let len = reserved[start..].partition_point(|&w| w <= hi);
    &reserved[start..start + len]
}

/// Generic-predicate sweep: every entry for which `keep` returns `false`
/// is freed; survivors stay in their original retire order. Returns the
/// number freed. Rides [`sweep_blocks`] with a per-node keep mask and no
/// range test — the reference the filtered sweeps are tested against.
///
/// # Safety
///
/// As for [`sweep_blocks`], with `keep` as the plan.
#[cfg(test)]
pub(crate) unsafe fn sweep_retire_list(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    mut keep: impl FnMut(&Retired) -> bool,
) -> usize {
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, |b| {
            BlockPlan::Mask(keep_mask(b, &mut keep))
        })
    }
}

/// Frees every entry of `list` whose pointer is **not** in the sorted
/// `reserved` set; reserved entries are retained in order. Returns the
/// number freed.
///
/// Per block: a range test of the pointer extrema against `reserved` frees
/// untouched blocks whole; any other block binary-searches each record in
/// the reserved window its span narrows to.
///
/// # Safety
///
/// `reserved` must contain every (unmarked) pointer any thread may still
/// access — the scheme's scan guarantees this. `tid` must be the caller's
/// registered domain thread id.
pub(crate) unsafe fn free_unreserved(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    reserved: &[u64],
) -> usize {
    debug_assert!(reserved.windows(2).all(|w| w[0] <= w[1]));
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, |b| {
            let (min_ptr, max_ptr) = b.ptr_range();
            let window = reserved_window(reserved, min_ptr, max_ptr);
            if window.is_empty() {
                return BlockPlan::FreeAll;
            }
            BlockPlan::Mask(keep_mask(b, |r| {
                window.binary_search(&(r.ptr() as u64)).is_ok()
            }))
        })
    }
}

/// Frees every entry whose `[birth_era, retire_era]` lifespan intersects no
/// reserved era in the sorted `reserved` slice (hazard-eras `canFree`,
/// paper Alg. 4/5). Returns the number freed.
///
/// Per block: the `[min_birth, max_retire]` envelope contains every
/// member's lifespan, so an envelope free of reserved eras frees the block
/// whole; any other block tests each lifespan against the reserved window
/// the envelope narrows to ([`era_range_reserved`]).
///
/// # Safety
///
/// `reserved` must include every era any thread may have reserved. `tid`
/// must be the caller's registered domain thread id.
#[cfg_attr(not(test), allow(dead_code))] // stall-free entry point, exercised by the unit suite
pub(crate) unsafe fn free_era_unreserved(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    reserved: &[u64],
) -> usize {
    // SAFETY: forwarded contract.
    unsafe { free_era_unreserved_with_stalled(base, tid, list, reserved, None) }
}

/// [`free_era_unreserved`] with a stalled-reader escape hatch. `reserved`
/// is the union of **all** reserved eras (the safety set); `active`
/// optionally carries the reserved eras of **non-stalled** threads only,
/// plus the known-stalled blocker's identity. A block whose lifespan
/// envelope misses every union era frees whole as before; one that misses
/// every *active* era — pinned only by the stalled blocker's slots — is
/// parked in the domain quarantine under the blocker's key instead of
/// being re-scanned each pass. Per-node masking always tests the full
/// union, so nothing a live thread may hold is ever freed or parked
/// node-wise.
///
/// # Safety
///
/// As for [`free_era_unreserved`]; additionally `active` (when given)
/// must include every era any **non-stalled** registered thread may have
/// reserved.
pub(crate) unsafe fn free_era_unreserved_with_stalled(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    reserved: &[u64],
    active: Option<(&[u64], usize, u64)>,
) -> usize {
    debug_assert!(reserved.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(active.is_none_or(|(a, _, _)| a.windows(2).all(|w| w[0] <= w[1])));
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, |b| {
            let (min_birth, _, max_retire) = b.era_ranges();
            // Reserved eras overlapping the block's lifespan envelope;
            // every member's `[birth, retire]` lies inside the envelope,
            // so eras outside the window can hit no member.
            let window = reserved_window(reserved, min_birth, max_retire);
            if window.is_empty() {
                return BlockPlan::FreeAll;
            }
            if let Some((act, blocker_tid, blocker_word)) = active {
                // Some union era pins the block, but if no *active* era
                // does, every pinning era belongs to the stalled blocker:
                // park the block whole under its release key.
                if reserved_window(act, min_birth, max_retire).is_empty() {
                    return BlockPlan::Quarantine {
                        blocker_tid,
                        word: blocker_word,
                    };
                }
            }
            BlockPlan::Mask(keep_mask(b, |r| {
                era_range_reserved(window, r.birth_era(), r.retire_era())
            }))
        })
    }
}

/// The epoch floor a stalled-reader emergency sweep would reach if the one
/// known-stalled blocker were ignored: `min` over every **non-stalled**
/// registered reservation, plus the identity of the blocker whose pinned
/// word holds the real floor down. Built by the epoch schemes' min-scan
/// when the emergency rung is active.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RelaxedMin {
    /// Minimum announced epoch over non-stalled registered threads.
    pub min: u64,
    /// The stalled participant pinning the floor below `min`.
    pub blocker_tid: usize,
    /// The blocker's observed reservation word (quarantine release key).
    pub blocker_word: u64,
}

/// Stall-aware epoch min-scan shared by the epoch schemes: feeds every
/// registered announcement into the domain stall tracker (ages must accrue
/// *before* the emergency rung engages), returning the true floor plus —
/// on the emergency rung only — the relaxed floor over non-stalled readers
/// and the single worst stalled blocker holding the true floor down.
/// `quiescent` is the scheme's parked announcement value; `word_of(t)`
/// must perform the scheme's ordered reservation load.
pub(crate) fn scan_epoch_reservations(
    base: &DomainBase,
    quiescent: u64,
    word_of: impl Fn(usize) -> u64,
) -> (u64, Option<RelaxedMin>) {
    let emergency = base.stats.pressure().rung() >= PressureRung::Emergency;
    let mut min = u64::MAX;
    let mut relaxed = u64::MAX;
    let mut blocker: Option<(usize, u64)> = None;
    for t in 0..base.cfg.max_threads {
        if !base.is_registered(t) {
            continue;
        }
        let w = word_of(t);
        min = min.min(w);
        // Quiescent readers park outside every epoch: idle, never stalled.
        // Live words shift by one so a reader pinned at epoch 0 stays
        // distinguishable from idle in the tracker.
        let sig = if w == quiescent { 0 } else { w.wrapping_add(1) };
        let stalled =
            base.stall.observe(t, sig) >= crate::pressure::STALLED_AFTER_PASSES && w != quiescent;
        if !emergency {
            continue;
        }
        if stalled {
            if blocker.is_none_or(|(_, bw)| w < bw) {
                blocker = Some((t, w));
            }
        } else {
            relaxed = relaxed.min(w);
        }
    }
    // Only a blocker strictly below the relaxed floor buys anything: the
    // quarantine window `[max_retire < relaxed.min]` would be empty
    // otherwise.
    let relaxed_min = blocker.and_then(|(t, w)| {
        (w < relaxed).then_some(RelaxedMin {
            min: relaxed,
            blocker_tid: t,
            blocker_word: w,
        })
    });
    (min, relaxed_min)
}

/// Frees every entry retired strictly before epoch `min` (EBR / EpochPOP
/// fast path). Returns the number freed.
///
/// Per block: the cached retire-era extrema decide most blocks whole
/// (`min_retire >= min` keeps, `max_retire < min` frees) without touching
/// a record; only straddling blocks pay the per-node comparison.
///
/// # Safety
///
/// `min` must be a lower bound on every registered thread's announced
/// epoch — nodes retired before it are unreachable. `tid` must be the
/// caller's registered domain thread id.
#[cfg_attr(not(test), allow(dead_code))] // stall-free entry point, exercised by the unit suite
pub(crate) unsafe fn free_before_epoch(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    min: u64,
) -> usize {
    // SAFETY: forwarded contract.
    unsafe { free_before_epoch_with_stalled(base, tid, list, min, None) }
}

/// [`free_before_epoch`] with a stalled-reader escape hatch: blocks whose
/// entire retire range lies below `relaxed.min` — provably pinned **only**
/// by the known-stalled blocker — are parked in the domain quarantine
/// instead of being re-scanned every pass. Parking is conservative: the
/// blocks are not freed, and [`DomainBase::reclaim_released_quarantine`]
/// re-filters them against *all* live reservations once the blocker's
/// epoch moves, so a mis-ranked blocker costs a deferred sweep, never a
/// premature free.
///
/// # Safety
///
/// As for [`free_before_epoch`]; additionally `relaxed.min` must be a
/// lower bound on every registered **non-stalled** thread's announced
/// epoch.
pub(crate) unsafe fn free_before_epoch_with_stalled(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    min: u64,
    relaxed: Option<&RelaxedMin>,
) -> usize {
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, |b| {
            let (_, min_retire, max_retire) = b.era_ranges();
            if max_retire < min {
                return BlockPlan::FreeAll;
            }
            if let Some(rm) = relaxed {
                // Below the non-stalled floor but not the true floor:
                // every member is pinned solely by the blocker.
                if max_retire < rm.min {
                    return BlockPlan::Quarantine {
                        blocker_tid: rm.blocker_tid,
                        word: rm.blocker_word,
                    };
                }
            }
            if min_retire >= min {
                return BlockPlan::KeepAll;
            }
            BlockPlan::Mask(keep_mask(b, |r| r.retire_era() >= min))
        })
    }
}

/// Scans every registered thread's reservation row into `out` as a sorted,
/// deduplicated set of non-zero words. Shared by the eager pointer schemes
/// (HP, HPAsym); allocation-free once `out` has grown to working capacity.
pub(crate) fn collect_slot_words_into(base: &DomainBase, rows: &Rows, out: &mut Vec<u64>) {
    out.clear();
    for t in 0..base.cfg.max_threads {
        if !base.is_registered(t) {
            continue;
        }
        for cell in rows.row(t) {
            let w = cell.load(Ordering::Acquire);
            if w != 0 {
                out.push(w);
            }
        }
    }
    out.sort_unstable();
    out.dedup();
}

/// Whether `gtid` is the process registry's slot for the **calling**
/// thread — i.e. a registration obtained through
/// [`crate::smr::Smr::register`], not a gtid fabricated by a unit test.
///
/// Captured once at bind time. A backed registration can only disappear
/// through the thread's own teardown (`Registration` drops the domain
/// binding *before* the registry handle, and the thread-exit TLS
/// destructor is the only other releaser), so a later `Vacated` probe of a
/// still-bound domain tid is proof the thread is gone. An unbacked gtid
/// proves nothing — its probes may be watching an unrelated thread's slot.
pub(crate) fn registration_backed(gtid: usize) -> bool {
    gtid < pop_runtime::MAX_THREADS && pop_runtime::Registry::global().find_current() == Some(gtid)
}

/// Whether the registration `(gtid, generation)` is confirmed dead: the
/// kernel-tid probe reports the thread gone, or the registration vanished
/// from the registry while its domain binding survived (`backed` — the
/// thread exited and TLS teardown released the slot for it). `Alive` and
/// every ambiguous outcome read as "not dead": reaping is an optimization,
/// keeping is the correctness story.
pub(crate) fn registration_confirmed_dead(gtid: usize, generation: u64, backed: bool) -> bool {
    use pop_runtime::{Liveness, Registry};
    if gtid >= pop_runtime::MAX_THREADS {
        return false;
    }
    match Registry::global().probe(gtid, generation) {
        Liveness::Dead => true,
        Liveness::Vacated => backed,
        Liveness::Alive => false,
    }
}

/// Re-confirms death immediately before a reap and releases the registry
/// slot if it is still held. Returns whether the reaper may proceed.
///
/// Two confirmable shapes: the slot is still active with a dead kernel tid
/// ([`pop_runtime::Registry::reap`] releases it here), or a `backed`
/// registration already vacated by the dead thread's TLS teardown (nothing
/// left to release). A live or recycled-by-another-claim registration
/// refuses the reap.
pub(crate) fn reap_registration(gtid: usize, generation: u64, backed: bool) -> bool {
    use pop_runtime::{Liveness, Registry};
    if gtid >= pop_runtime::MAX_THREADS {
        return false;
    }
    Registry::global().reap(gtid, generation)
        || (backed && Registry::global().probe(gtid, generation) == Liveness::Vacated)
}

/// Whether any era in sorted `reserved` lies within `[birth, retire]`.
pub fn era_range_reserved(reserved: &[u64], birth: u64, retire: u64) -> bool {
    // First reserved era >= birth; blocked if it also <= retire.
    let idx = reserved.partition_point(|&e| e < birth);
    idx < reserved.len() && reserved[idx] <= retire
}

/// Bench/diagnostic harness driving the pointer-reservation sweep
/// ([`free_unreserved`]) over a synthetic retire list, filled from the
/// heap or from the owned slab arenas. **Not a stable API** (re-exported
/// through `pop_core::testing`).
#[doc(hidden)]
pub struct SweepBench {
    base: DomainBase,
    list: RetireList,
}

#[repr(C)]
struct SweepBenchNode {
    hdr: crate::header::Header,
    _payload: [u64; 2],
}
// SAFETY: repr(C) with the header first.
unsafe impl crate::header::HasHeader for SweepBenchNode {}

impl Default for SweepBench {
    fn default() -> Self {
        Self::new()
    }
}

impl SweepBench {
    /// A single-thread domain whose reclaim threshold never triggers on
    /// its own — sweeps run only when the harness asks.
    pub fn new() -> Self {
        SweepBench {
            base: DomainBase::new(SmrConfig::for_tests(1).with_reclaim_freq(1 << 30)),
            list: RetireList::new(RETIRE_BATCH_CAP),
        }
    }

    /// Allocates and retires `n` nodes (slab- or `Box`-backed), returning
    /// their pointer words in retire order (callers draw reservation sets
    /// from these).
    fn fill_with(&mut self, n: usize, slab: bool) -> Vec<u64> {
        (0..n as u64)
            .map(|i| {
                let node = SweepBenchNode {
                    hdr: crate::header::Header::new(i, core::mem::size_of::<SweepBenchNode>()),
                    _payload: [0; 2],
                };
                let p = crate::slab::alloc_value(node, slab);
                self.base
                    .stats
                    .shard(0)
                    .allocated_nodes
                    .fetch_add(1, Ordering::Relaxed);
                // SAFETY: freshly allocated, never shared, retired exactly
                // once.
                let mut r = unsafe { Retired::new(p) };
                r.set_retire_era(i);
                push_retired(&self.base, 0, &mut self.list, r);
                p as u64
            })
            .collect()
    }

    /// Allocates and retires `n` `Box`-backed nodes. Retire order is
    /// whatever the allocator hands out — address-random after the first
    /// drain/refill cycle.
    pub fn fill(&mut self, n: usize) -> Vec<u64> {
        self.fill_with(n, false)
    }

    /// Allocates and retires `n` nodes from the owned slab arenas: bump
    /// fills keep every sealed block inside one slab, so sweeps settle
    /// most blocks whole with one range test.
    pub fn fill_slab(&mut self, n: usize) -> Vec<u64> {
        self.fill_with(n, true)
    }

    /// Retire blocks that settled wholly against a single slab with one
    /// range test (`slab_frees_whole`).
    pub fn slab_frees_whole(&self) -> u64 {
        self.base.stats.snapshot().slab_frees_whole
    }

    /// Sweeps with [`free_unreserved`] (range test, then the per-node
    /// window test). `reserved` must be sorted and deduplicated. Returns
    /// the number freed.
    pub fn sweep(&mut self, reserved: &[u64]) -> usize {
        // SAFETY: harness nodes are never shared; any entry is freeable.
        unsafe { free_unreserved(&self.base, 0, &mut self.list, reserved) }
    }

    /// Frees every node still held (survivors between iterations).
    pub fn drain(&mut self) {
        let mut nodes = Vec::new();
        self.list.drain_all(|r| nodes.push(r));
        for r in nodes {
            // SAFETY: harness nodes are never shared.
            unsafe { self.base.free_now(0, r) };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{Header, Retired};

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl crate::header::HasHeader for N {}

    fn node(birth: u64) -> *mut N {
        Box::into_raw(Box::new(N {
            hdr: Header::new(birth, core::mem::size_of::<N>()),
            v: 0,
        }))
    }

    /// The retirement record of `p`, stamped with `retire` and counted as
    /// allocated.
    fn record(base: &DomainBase, p: *mut N, retire: u64) -> Retired {
        base.stats
            .shard(0)
            .allocated_nodes
            .fetch_add(1, Ordering::Relaxed);
        let mut r = unsafe { Retired::new(p) };
        r.set_retire_era(retire);
        r
    }

    fn mk(base: &DomainBase, birth: u64, retire: u64) -> Retired {
        record(base, node(birth), retire)
    }

    /// Records for `(birth, retire)` lifespans whose nodes all route to one
    /// fill bin, so a test fixes block composition exactly: an allocation
    /// that lands in another slab-sized region is dropped and retried.
    fn run(base: &DomainBase, lifespans: impl IntoIterator<Item = (u64, u64)>) -> Vec<Retired> {
        let mut strays = Vec::new();
        let mut bin = None;
        let out = lifespans
            .into_iter()
            .map(|(birth, retire)| loop {
                let p = node(birth);
                if *bin.get_or_insert(fill_bin(p as u64)) == fill_bin(p as u64) {
                    break record(base, p, retire);
                }
                strays.push(p);
            })
            .collect();
        for p in strays {
            unsafe { drop(Box::from_raw(p)) };
        }
        out
    }

    /// A retire list pre-filled (from one fill bin) with `eras` as both
    /// birth and retire eras, everything sealed.
    fn filled(base: &DomainBase, seal: usize, eras: &[u64]) -> RetireList {
        let mut list = RetireList::new(seal);
        for r in run(base, eras.iter().map(|&e| (e, e))) {
            push_retired(base, 0, &mut list, r);
        }
        seal_and_account(base, 0, &mut list);
        list
    }

    fn eras_of(list: &RetireList) -> Vec<u64> {
        let mut out = Vec::new();
        for b in &list.blocks {
            out.extend(b.nodes().iter().map(|r| r.birth_era()));
        }
        for fill in &list.fills {
            out.extend(fill.nodes().iter().map(|r| r.birth_era()));
        }
        out
    }

    fn drain_free(base: &DomainBase, list: &mut RetireList) {
        let mut nodes = Vec::new();
        list.drain_all(|r| nodes.push(r));
        for r in nodes {
            unsafe { base.free_now(0, r) };
        }
    }

    #[test]
    fn claim_release_cycle() {
        let b = DomainBase::new(SmrConfig::for_tests(2));
        b.claim(0);
        assert!(b.is_registered(0));
        b.release(0);
        assert!(!b.is_registered(0));
        b.claim(0); // reclaimable after release
        b.release(0);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn double_claim_panics() {
        let b = DomainBase::new(SmrConfig::for_tests(2));
        b.claim(1);
        b.claim(1);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_claim_panics() {
        let b = DomainBase::new(SmrConfig::for_tests(2));
        b.claim(2);
    }

    #[test]
    fn gtid_binding() {
        let b = DomainBase::new(SmrConfig::for_tests(2));
        assert_eq!(b.gtid(0), None);
        b.bind_gtid(0, 17);
        assert_eq!(b.gtid(0), Some(17));
        b.clear_gtid(0);
        assert_eq!(b.gtid(0), None);
    }

    #[test]
    fn push_seals_at_threshold_and_accounts_lazily() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(4);
        let mut recs = run(&b, (0..4).map(|i| (i, i))).into_iter();
        for r in recs.by_ref().take(3) {
            assert!(!push_retired(&b, 0, &mut list, r));
        }
        assert_eq!(
            b.stats.snapshot().retired_nodes,
            0,
            "no stats RMW before the seal"
        );
        assert_eq!(list.len(), 3);
        push_retired(&b, 0, &mut list, recs.next().unwrap());
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, 4, "seal accounts the whole block");
        assert_eq!(s.batches_sealed, 1);
        drain_free(&b, &mut list);
    }

    #[test]
    fn push_retired_paces_triggers_by_new_retires() {
        let b = DomainBase::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let mut list = RetireList::new(4);
        let mut crossings = 0;
        for r in run(&b, (0..16).map(|i| (i, i))) {
            if push_retired(&b, 0, &mut list, r) {
                crossings += 1;
            }
        }
        // Seals land at len 4, 8, 12, 16. Triggers need BOTH len >= 8 and
        // 8 new retires since the last trigger: fire at 8 and 16, not 12.
        assert_eq!(crossings, 2, "one trigger per reclaim_freq new retires");
        drain_free(&b, &mut list);
    }

    #[test]
    fn pinned_list_does_not_trigger_every_seal() {
        // Survivors keep len above the threshold (the stalled-reader
        // regime); a full-list pass must still only be requested once per
        // reclaim_freq new retires, not once per sealed block.
        let b = DomainBase::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let mut list = RetireList::new(4);
        let mut recs = run(&b, (0..16).map(|i| (i, i))).into_iter();
        for r in recs.by_ref().take(8) {
            push_retired(&b, 0, &mut list, r);
        }
        // Simulate a pass that freed nothing (all pinned).
        let freed = unsafe { sweep_retire_list(&b, 0, &mut list, |_| true) };
        assert_eq!(freed, 0);
        assert_eq!(list.len(), 8, "everything pinned");
        let mut crossings = 0;
        for r in recs {
            if push_retired(&b, 0, &mut list, r) {
                crossings += 1;
            }
        }
        // len stays >= 8 throughout, but only the seal completing 8 new
        // retires (len 16) may trigger.
        assert_eq!(
            crossings, 1,
            "pinned survivors must not cause O(n^2) passes"
        );
        drain_free(&b, &mut list);
    }

    #[test]
    fn free_unreserved_respects_reservations() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = filled(&b, 1, &[0, 0, 0]);
        let kept = list.blocks[1].nodes()[0].ptr() as u64;
        let reserved = vec![kept];
        let freed = unsafe { free_unreserved(&b, 0, &mut list, &reserved) };
        assert_eq!(freed, 2);
        assert_eq!(list.len(), 1);
        assert_eq!(list.blocks[0].nodes()[0].ptr() as u64, kept);
        drain_free(&b, &mut list);
    }

    #[test]
    fn sweep_preserves_survivor_order_without_reallocating() {
        // The block sweep must keep survivors in retire order (oldest
        // first — schemes rely on this for retire-era monotonicity) and
        // must not allocate: emptied blocks recycle into the free pool.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Seal threshold 3: eras spread over three blocks of three.
        let mut list = filled(&b, 3, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(list.blocks.len(), 3);
        let keep: Vec<u64> = vec![1, 4, 6];
        let kept_ptrs: Vec<u64> = list
            .blocks
            .iter()
            .flat_map(|blk| blk.nodes())
            .filter(|r| keep.contains(&r.birth_era()))
            .map(|r| r.ptr() as u64)
            .collect();
        let freed =
            unsafe { sweep_retire_list(&b, 0, &mut list, |r| keep.contains(&r.birth_era())) };
        assert_eq!(freed, 6);
        assert_eq!(list.len(), 3);
        assert_eq!(
            eras_of(&list),
            keep,
            "survivors must keep their original relative order"
        );
        let survivor_ptrs: Vec<u64> = list
            .blocks
            .iter()
            .flat_map(|blk| blk.nodes())
            .map(|r| r.ptr() as u64)
            .collect();
        assert_eq!(
            survivor_ptrs, kept_ptrs,
            "survivors must be the same objects, not copies"
        );
        // Accounting: freed counted on shard 0.
        assert_eq!(b.stats.snapshot().freed_nodes, 6);
        drain_free(&b, &mut list);
    }

    #[test]
    fn sweep_block_fast_paths_count_whole_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Three full blocks of 2: eras (0,0), (5,5), (0,5).
        let mut list = filled(&b, 2, &[0, 0, 5, 5, 0, 5]);
        // Keep era 5: block 0 freed whole, block 1 kept whole, block 2
        // compacts.
        let freed = unsafe { sweep_retire_list(&b, 0, &mut list, |r| r.birth_era() == 5) };
        assert_eq!(freed, 3);
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_freed_whole, 1, "all-freeable block fast path");
        assert_eq!(s.blocks_kept_whole, 1, "all-survivor block fast path");
        assert_eq!(eras_of(&list), vec![5, 5, 5]);
        // Recycled block feeds the next fill: no allocation.
        assert_eq!(list.free.len(), 1);
        drain_free(&b, &mut list);
    }

    #[test]
    fn sweep_seals_and_accounts_the_partial_fill() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(8);
        for i in 0..5 {
            push_retired(&b, 0, &mut list, mk(&b, i, i));
        }
        assert_eq!(b.stats.snapshot().retired_nodes, 0, "sub-batch: unsealed");
        let freed = unsafe { sweep_retire_list(&b, 0, &mut list, |_| false) };
        assert_eq!(freed, 5);
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, 5, "flush-style sweep seals the fill");
        assert_eq!(s.freed_nodes, 5);
        assert!(list.is_empty());
    }

    #[test]
    fn free_before_epoch_sweeps_by_retire_era() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(RETIRE_BATCH_CAP);
        for r in run(&b, [(0, 3), (0, 7), (0, 5)]) {
            push_retired(&b, 0, &mut list, r);
        }
        let freed = unsafe { free_before_epoch(&b, 0, &mut list, 5) };
        assert_eq!(freed, 1, "only retire era 3 < 5 is freeable");
        let survivors: Vec<u64> = list
            .blocks
            .iter()
            .flat_map(|blk| blk.nodes())
            .map(|r| r.retire_era())
            .collect();
        assert_eq!(survivors, vec![7, 5]);
        drain_free(&b, &mut list);
    }

    #[test]
    fn quarantine_poisons_instead_of_freeing() {
        let b = DomainBase::new(SmrConfig::for_tests(1).with_quarantine());
        let r = mk(&b, 0, 0);
        let ptr = r.ptr();
        unsafe { b.free_now(0, r) };
        assert_eq!(b.quarantine_len(), 1);
        // The allocation is still mapped and poisoned.
        assert!(unsafe { &*ptr }.is_poisoned());
        assert_eq!(b.stats.snapshot().freed_nodes, 1);
    }

    #[test]
    fn era_reservation_blocking() {
        // reserved eras: 5, 10, 20
        let reserved = vec![5, 10, 20];
        assert!(era_range_reserved(&reserved, 4, 6)); // 5 inside
        assert!(era_range_reserved(&reserved, 10, 10)); // exact hit
        assert!(!era_range_reserved(&reserved, 6, 9)); // gap
        assert!(!era_range_reserved(&reserved, 21, 30)); // above all
        assert!(!era_range_reserved(&reserved, 0, 4)); // below all
        assert!(era_range_reserved(&reserved, 0, 100)); // spans all
        assert!(!era_range_reserved(&[], 0, u64::MAX)); // nothing reserved
    }

    #[test]
    fn era_free_pass() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(RETIRE_BATCH_CAP);
        // lifespans: [1,2] freeable, [4,6] blocked by era 5, [7,9] freeable
        for (birth, retire) in [(1, 2), (4, 6), (7, 9)] {
            push_retired(&b, 0, &mut list, mk(&b, birth, retire));
        }
        let freed = unsafe { free_era_unreserved(&b, 0, &mut list, &[3, 5, 10]) };
        assert_eq!(freed, 2);
        assert_eq!(list.len(), 1);
        assert_eq!(eras_of(&list), vec![4]);
        drain_free(&b, &mut list);
    }

    #[test]
    fn orphan_remaining_seals_partial_batches() {
        let stats;
        {
            let b = DomainBase::new(SmrConfig::for_tests(1));
            stats = Arc::clone(&b.stats);
            let mut list = RetireList::new(RETIRE_BATCH_CAP);
            // Two sub-batch nodes: not yet accounted.
            push_retired(&b, 0, &mut list, mk(&b, 0, 0));
            push_retired(&b, 0, &mut list, mk(&b, 0, 0));
            assert_eq!(stats.snapshot().retired_nodes, 0);
            b.orphan_remaining(0, &mut list);
            assert!(list.is_empty(), "everything handed to the domain");
            let s = stats.snapshot();
            assert_eq!(s.retired_nodes, 2, "partial batch sealed, not leaked");
            assert_eq!(s.freed_nodes, 0);
            assert_eq!(b.orphan_len(), 2);
        }
        assert_eq!(stats.snapshot().freed_nodes, 2, "orphans freed on drop");
    }

    #[test]
    fn orphan_adoption_is_bounded_and_preserves_accounting() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut donor = RetireList::new(RETIRE_BATCH_CAP);
        let total = ORPHAN_ADOPT_MAX + 10;
        for i in 0..total as u64 {
            push_retired(&b, 0, &mut donor, mk(&b, i, i));
        }
        b.orphan_remaining(0, &mut donor);
        assert_eq!(b.orphan_len(), total);
        let retired_before = b.stats.snapshot().retired_nodes;

        let mut joiner = RetireList::new(RETIRE_BATCH_CAP);
        b.adopt_orphan_chunk(0, &mut joiner);
        assert_eq!(joiner.len(), ORPHAN_ADOPT_MAX, "chunk is bounded");
        assert_eq!(b.orphan_len(), 10, "remainder stays parked");
        assert_eq!(
            b.stats.snapshot().retired_nodes,
            retired_before,
            "adopted nodes are not re-counted"
        );
        assert_eq!(b.stats.snapshot().orphans_adopted, ORPHAN_ADOPT_MAX as u64);
        // A sweep reclaims the adopted nodes through the normal path, and
        // additionally STEALS the parked remainder (reclaimer-side orphan
        // adoption) so static memberships drain orphans too.
        let freed = unsafe { sweep_retire_list(&b, 0, &mut joiner, |_| false) };
        assert_eq!(freed, ORPHAN_ADOPT_MAX + 10, "sweep steals the remainder");
        assert_eq!(b.orphan_len(), 0, "orphans fully drained by the pass");
        assert_eq!(b.stats.snapshot().orphans_stolen, 10);
        assert_eq!(
            b.stats.snapshot().retired_nodes,
            retired_before,
            "neither adoption nor stealing recounts retires"
        );
    }

    #[test]
    fn sweep_steals_bounded_orphan_chunks_until_drained() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut donor = RetireList::new(RETIRE_BATCH_CAP);
        let total = 2 * ORPHAN_ADOPT_MAX + 5;
        for i in 0..total as u64 {
            push_retired(&b, 0, &mut donor, mk(&b, i, i));
        }
        b.orphan_remaining(0, &mut donor);
        assert_eq!(b.orphan_len(), total);

        let mut reclaimer = RetireList::new(RETIRE_BATCH_CAP);
        // Each pass adopts at most one chunk.
        let freed = unsafe { sweep_retire_list(&b, 0, &mut reclaimer, |_| false) };
        assert_eq!(freed, ORPHAN_ADOPT_MAX, "one chunk per pass");
        assert_eq!(b.orphan_len(), total - ORPHAN_ADOPT_MAX);
        let freed = unsafe { sweep_retire_list(&b, 0, &mut reclaimer, |_| false) };
        assert_eq!(freed, ORPHAN_ADOPT_MAX);
        let freed = unsafe { sweep_retire_list(&b, 0, &mut reclaimer, |_| false) };
        assert_eq!(freed, 5, "third pass drains the tail");
        assert_eq!(b.orphan_len(), 0);
        let s = b.stats.snapshot();
        assert_eq!(s.orphans_stolen, total as u64);
        assert_eq!(s.freed_nodes, total as u64, "conservation through stealing");
        // Empty orphan list: further sweeps steal nothing.
        let freed = unsafe { sweep_retire_list(&b, 0, &mut reclaimer, |_| false) };
        assert_eq!(freed, 0);
        assert_eq!(b.stats.snapshot().orphans_stolen, total as u64);
    }

    #[test]
    fn leak_sealed_blocks_recycles_boxes() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = filled(&b, 2, &[0, 1, 2, 3]);
        assert_eq!(list.blocks.len(), 2);
        list.leak_sealed_blocks();
        assert!(list.is_empty());
        assert_eq!(list.free.len(), 2, "block boxes return to the pool");
        // Intentional leak of 4 N allocations (NR semantics).
    }

    #[test]
    fn epoch_clocks_advance_only_by_max_scan() {
        let c = EpochClocks::new(3);
        assert_eq!(c.current(), 1);
        for _ in 0..10 {
            c.tick(1);
        }
        assert_eq!(c.current(), 1, "op-path ticks never write the global");
        assert_eq!(c.local_of(1), 11);
        let e = c.advance_max_scan(0);
        assert_eq!(e, 11, "aggregation takes the max clock");
        assert_eq!(c.current(), 11);
        // The liveness guarantee: a reclaimer whose private clock lags a
        // formerly-hot, now-idle peer's must still advance the epoch on
        // EVERY pass (its clock jumps past the global first), not after
        // `max - own` no-op passes.
        let e2 = c.advance_max_scan(2);
        assert!(e2 > e, "a lagging reclaimer's pass still advances: {e2}");
        let mut last = e2;
        for _ in 0..20 {
            let next = c.advance_max_scan(0);
            assert!(next > last, "every pass must advance the epoch");
            last = next;
        }
        assert_eq!(c.current(), last);
    }

    #[test]
    fn striped_max_scan_covers_wide_domains_via_rotation() {
        // 26 threads → 4 stripes. A hot clock in the LAST stripe must be
        // folded into the global within nstripes passes by a reclaimer
        // whose own stripe is the first — the rotating-subset sampling.
        let c = EpochClocks::new(26);
        for _ in 0..40 {
            c.tick(25);
        }
        assert_eq!(c.local_of(25), 41);
        let mut last = c.current();
        for _ in 0..4 {
            let next = c.advance_max_scan(0);
            assert!(next > last, "every striped pass still advances");
            last = next;
        }
        assert!(
            c.current() >= 41,
            "rotation must fold the idle stripe's clock in within \
             nstripes passes (global = {})",
            c.current()
        );
    }

    #[test]
    fn free_unreserved_range_test_frees_disjoint_blocks_whole() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Two full blocks of 2; reservations exist but none falls inside
        // any block's pointer span.
        let mut list = filled(&b, 2, &[0, 0, 0, 0]);
        let max_ptr = list
            .blocks
            .iter()
            .flat_map(|blk| blk.nodes())
            .map(|r| r.ptr() as u64)
            .max()
            .unwrap();
        // Non-empty reserved set strictly above every block pointer.
        let reserved = vec![max_ptr + 64, max_ptr + 128];
        let freed = unsafe { free_unreserved(&b, 0, &mut list, &reserved) };
        assert_eq!(freed, 4);
        assert!(list.is_empty());
        let s = b.stats.snapshot();
        assert_eq!(
            s.blocks_freed_whole, 2,
            "range test must free disjoint blocks without touching records"
        );
    }

    #[test]
    fn filtered_sweeps_match_the_reference_predicate() {
        // Range test + per-node window test must free exactly what the
        // plain per-node predicate frees. Each filtered sweep and
        // `sweep_retire_list` run over twin lists — same lifespans,
        // different nodes, reservations drawn at the same positions — and
        // the survivors compare by birth era, the twins' shared tag.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // 257: not a multiple of the block size.
        let lifespans: Vec<(u64, u64)> = (0..257u64).map(|i| (i, i + i % 7)).collect();
        let twin = || {
            let mut list = RetireList::new(RETIRE_BATCH_CAP);
            let mut ptrs = Vec::new();
            for &(birth, retire) in &lifespans {
                let r = mk(&b, birth, retire);
                ptrs.push(r.ptr() as u64);
                push_retired(&b, 0, &mut list, r);
            }
            (list, ptrs)
        };
        let survivors = |list: &mut RetireList| {
            let mut v = eras_of(list);
            v.sort_unstable();
            drain_free(&b, list);
            v
        };

        let (mut fast, fast_ptrs) = twin();
        let (mut slow, slow_ptrs) = twin();
        let every_fifth = |ptrs: &[u64]| {
            let mut r: Vec<u64> = ptrs.iter().copied().step_by(5).collect();
            r.sort_unstable();
            r
        };
        let (fr, sr) = (every_fifth(&fast_ptrs), every_fifth(&slow_ptrs));
        let freed = unsafe { free_unreserved(&b, 0, &mut fast, &fr) };
        let freed_ref = unsafe {
            sweep_retire_list(&b, 0, &mut slow, |r| {
                sr.binary_search(&(r.ptr() as u64)).is_ok()
            })
        };
        assert_eq!(freed, 257 - fr.len());
        assert_eq!(freed, freed_ref);
        assert_eq!(survivors(&mut fast), survivors(&mut slow), "pointers");

        let eras = [3, 40, 41, 100, 250];
        let (mut fast, _) = twin();
        let (mut slow, _) = twin();
        let freed = unsafe { free_era_unreserved(&b, 0, &mut fast, &eras) };
        let freed_ref = unsafe {
            sweep_retire_list(&b, 0, &mut slow, |r| {
                era_range_reserved(&eras, r.birth_era(), r.retire_era())
            })
        };
        assert!(freed > 0 && freed < 257);
        assert_eq!(freed, freed_ref);
        assert_eq!(survivors(&mut fast), survivors(&mut slow), "eras");

        let (mut fast, _) = twin();
        let (mut slow, _) = twin();
        let freed = unsafe { free_before_epoch(&b, 0, &mut fast, 120) };
        let freed_ref = unsafe { sweep_retire_list(&b, 0, &mut slow, |r| r.retire_era() >= 120) };
        assert_eq!(freed, freed_ref);
        assert_eq!(survivors(&mut fast), survivors(&mut slow), "epochs");
    }

    #[test]
    fn free_era_unreserved_envelope_frees_whole_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Block 0: lifespans within [0, 5]; block 1: within [20, 25].
        let mut list = filled(&b, 3, &[0, 3, 5, 20, 22, 25]);
        // Reserved era 10 sits between the two envelopes: both blocks are
        // freed whole by the range test.
        let freed = unsafe { free_era_unreserved(&b, 0, &mut list, &[10]) };
        assert_eq!(freed, 6);
        assert_eq!(b.stats.snapshot().blocks_freed_whole, 2);
        // Mixed case: era 3 pins only part of block 0's twin.
        let mut list = filled(&b, 3, &[0, 3, 5, 20, 22, 25]);
        let freed = unsafe { free_era_unreserved(&b, 0, &mut list, &[3, 10]) };
        assert_eq!(freed, 5, "only the [3,3] lifespan survives");
        assert_eq!(eras_of(&list), vec![3]);
        drain_free(&b, &mut list);
    }

    #[test]
    fn free_before_epoch_summary_decides_whole_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(2);
        // Blocks of 2 with retire eras (1,2) freeable, (8,9) kept, (4,6)
        // straddling min = 5.
        for r in run(&b, [(0, 1), (0, 2), (0, 8), (0, 9), (0, 4), (0, 6)]) {
            push_retired(&b, 0, &mut list, r);
        }
        let freed = unsafe { free_before_epoch(&b, 0, &mut list, 5) };
        assert_eq!(freed, 3, "retire eras 1, 2 and 4 are below the bound");
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_freed_whole, 1, "the (1,2) block freed whole");
        assert_eq!(s.blocks_kept_whole, 1, "the (8,9) block kept untouched");
        drain_free(&b, &mut list);
    }

    #[test]
    fn one_bin_seals_in_retire_order() {
        // Nodes routed to one bin seal in retire order: one block per
        // `seal` nodes, the remainder sealed by a flush as one partial
        // block.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(4);
        for r in run(&b, (0..10).map(|i| (i, i))) {
            push_retired(&b, 0, &mut list, r);
        }
        let s = b.stats.snapshot();
        assert_eq!(s.batches_sealed, 2, "seals at 4 and 8 exactly");
        assert_eq!(s.retired_nodes, 8, "fill holds 2 unsealed nodes");
        assert_eq!(eras_of(&list), (0..10).collect::<Vec<u64>>());
        seal_and_account(&b, 0, &mut list);
        let s = b.stats.snapshot();
        assert_eq!(s.batches_sealed, 3, "one partial block from one bin");
        assert_eq!(s.retired_nodes, 10);
        drain_free(&b, &mut list);
    }

    #[test]
    fn a_sealed_block_never_mixes_slab_residues() {
        // The routing invariant behind whole-slab settlement: every sealed
        // block's members share one `(ptr / SLAB_BYTES) % FILL_BINS`
        // residue. 4 KiB nodes spread 64 retires over several slab-sized
        // regions, so several bins fill at once.
        #[repr(C)]
        struct Wide {
            hdr: Header,
            _pad: [u8; 4088],
        }
        unsafe impl crate::header::HasHeader for Wide {}
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(8);
        for i in 0..64 {
            let p = Box::into_raw(Box::new(Wide {
                hdr: Header::new(i, core::mem::size_of::<Wide>()),
                _pad: [0; 4088],
            }));
            b.stats
                .shard(0)
                .allocated_nodes
                .fetch_add(1, Ordering::Relaxed);
            push_retired(&b, 0, &mut list, unsafe { Retired::new(p) });
        }
        seal_and_account(&b, 0, &mut list);
        assert_eq!(list.len(), 64, "conservation through binned seals");
        let mut residues = std::collections::BTreeSet::new();
        for blk in &list.blocks {
            let bins: Vec<usize> = blk
                .nodes()
                .iter()
                .map(|r| fill_bin(r.ptr() as u64))
                .collect();
            assert!(
                bins.windows(2).all(|w| w[0] == w[1]),
                "a sealed block must hold a single slab residue, got {bins:?}"
            );
            residues.insert(bins[0]);
        }
        assert!(residues.len() > 1, "the fill must exercise several bins");
        drain_free(&b, &mut list);
    }

    #[test]
    fn partial_bins_seal_at_unregister_and_conserve() {
        // The ISSUE's unregister gotcha: with many bins, several partial
        // fill blocks are open at unregister; every one must be sealed
        // (accounted once per block) and parked — no node unsealed, no
        // node leaked.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(RETIRE_BATCH_CAP);
        let n = 21u64;
        for i in 0..n {
            push_retired(&b, 0, &mut list, mk(&b, i, i));
        }
        assert_eq!(b.stats.snapshot().retired_nodes, 0, "all still filling");
        let open_bins = list.fills.iter().filter(|f| !f.is_empty()).count() as u64;
        assert!(open_bins >= 1);
        b.orphan_remaining(0, &mut list);
        assert!(list.is_empty(), "everything handed to the domain");
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, n, "partial bins sealed, not leaked");
        assert_eq!(s.batches_sealed, open_bins, "one seal event per bin");
        assert_eq!(b.orphan_len(), n as usize);
        // A sweep steals the parked blocks and frees them: conservation.
        let mut reclaimer = RetireList::new(RETIRE_BATCH_CAP);
        let freed = unsafe { sweep_retire_list(&b, 0, &mut reclaimer, |_| false) };
        assert_eq!(freed as u64, n);
        assert_eq!(b.orphan_len(), 0);
        assert_eq!(b.stats.snapshot().freed_nodes, n, "allocated == freed");
    }

    #[test]
    fn extrema_survive_parking() {
        // Park blocks whose summaries are built, steal them, and verify
        // they arrive with both halves cached and are decided whole from
        // them without touching a record.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut donor = filled(&b, 4, &[0, 1, 2, 3, 4, 5, 6, 7]);
        // A keep-everything epoch sweep computes the era half.
        let freed = unsafe { free_before_epoch(&b, 0, &mut donor, 0) };
        assert_eq!(freed, 0);
        assert!(donor.blocks.iter().all(|blk| blk.summary_is_cached()));
        b.orphan_remaining(0, &mut donor);
        let mut thief = RetireList::new(4);
        b.steal_orphan_chunk(0, &mut thief);
        assert_eq!(thief.len(), 8, "both blocks stolen");
        for blk in &thief.blocks {
            assert!(
                blk.summary_is_cached(),
                "block-granular parking must not drop the extrema"
            );
        }
        let kept_before = b.stats.snapshot().blocks_kept_whole;
        let freed = unsafe { free_before_epoch(&b, 0, &mut thief, 0) };
        assert_eq!(freed, 0);
        assert_eq!(
            b.stats.snapshot().blocks_kept_whole,
            kept_before + 2,
            "stolen blocks range-test whole from surviving summaries"
        );
        drain_free(&b, &mut thief);
    }

    #[test]
    fn quarantine_parks_releases_and_conserves() {
        let b = DomainBase::new(SmrConfig::for_tests(2).with_pressure_watermarks(4, 8, 12));
        b.claim(0);
        b.claim(1);
        // Two sealed blocks, all retire eras below the relaxed floor:
        // everything is provably pinned only by blocker tid 1's word 7.
        let mut list = filled(&b, 2, &[0, 0, 1, 1]);
        let rm = RelaxedMin {
            min: 10,
            blocker_tid: 1,
            blocker_word: 7,
        };
        let freed = unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, 0, Some(&rm)) };
        assert_eq!(freed, 0, "quarantine never frees");
        assert_eq!(list.len(), 0, "both blocks left the list");
        assert_eq!(b.pressure_quarantine_len(), 2);
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_quarantined, 2);
        assert_eq!(b.stats.pressure().quarantined(), 4);
        assert_eq!(
            b.stats.pressure().count(),
            0,
            "parked nodes leave the actionable backlog"
        );
        // Blocker still pinned: nothing to release.
        b.reclaim_released_quarantine(0, &mut list, |t, w| {
            assert_eq!((t, w), (1, 7));
            true
        });
        assert_eq!(list.len(), 0);
        assert_eq!(b.pressure_quarantine_len(), 2);
        // Blocker's reservation moved: everything returns to the list.
        b.reclaim_released_quarantine(0, &mut list, |_, _| false);
        assert_eq!(list.len(), 4, "released blocks rejoin the caller's list");
        assert_eq!(b.pressure_quarantine_len(), 0);
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_unquarantined, 2);
        assert_eq!(b.stats.pressure().quarantined(), 0);
        drain_free(&b, &mut list);
        let s = b.stats.snapshot();
        assert_eq!(s.freed_nodes, s.retired_nodes, "conservation");
        assert_eq!(b.stats.pressure().count(), 0);
        b.release(1);
        b.release(0);
    }

    #[test]
    fn quarantine_releases_when_blocker_unregisters() {
        let b = DomainBase::new(SmrConfig::for_tests(2).with_pressure_watermarks(4, 8, 12));
        b.claim(0);
        b.claim(1);
        let mut list = filled(&b, 2, &[0, 0]);
        let rm = RelaxedMin {
            min: 10,
            blocker_tid: 1,
            blocker_word: 7,
        };
        unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, 0, Some(&rm)) };
        assert_eq!(b.pressure_quarantine_len(), 1);
        // The blocker dies / deregisters: its pinned word no longer means
        // anything, even if the release predicate still claims it does.
        b.release(1);
        b.reclaim_released_quarantine(0, &mut list, |_, _| true);
        assert_eq!(list.len(), 2, "a reaped blocker releases its blocks");
        assert_eq!(b.pressure_quarantine_len(), 0);
        drain_free(&b, &mut list);
        b.release(0);
    }

    #[test]
    fn quarantined_blocks_freed_at_drop_conserve() {
        let b = DomainBase::new(SmrConfig::for_tests(2).with_pressure_watermarks(4, 8, 12));
        b.claim(0);
        b.claim(1);
        let mut list = filled(&b, 2, &[0, 0, 1, 1]);
        let rm = RelaxedMin {
            min: 10,
            blocker_tid: 1,
            blocker_word: 7,
        };
        unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, 0, Some(&rm)) };
        assert_eq!(b.pressure_quarantine_len(), 2);
        let stats = Arc::clone(&b.stats);
        b.release(1);
        b.release(0);
        drop(b);
        let s = stats.snapshot();
        assert_eq!(s.freed_nodes, s.retired_nodes, "drop drains the quarantine");
    }

    #[test]
    fn striped_orphans_drain_from_any_stripe() {
        // Four tids park orphans on four stripes; a single adopter must
        // drain them all (its chunk scan covers every stripe), conserving
        // nodes exactly.
        let b = DomainBase::new(SmrConfig::for_tests(4));
        let total = 4 * 6;
        for t in 0..4 {
            b.claim(t);
            let mut list = filled(&b, 2, &[0, 0, 1, 1, 2, 2]);
            b.orphan_remaining(t, &mut list);
            b.release(t);
        }
        assert_eq!(b.orphan_len(), total);
        b.claim(0);
        let mut list = RetireList::new(2);
        let mut adopted = 0usize;
        // Each steal takes at most ORPHAN_CHUNK_BLOCKS blocks; loop until
        // the stripes are dry.
        for _ in 0..64 {
            let before = list.len();
            b.steal_orphan_chunk(0, &mut list);
            adopted += list.len() - before;
            if b.orphan_len() == 0 {
                break;
            }
        }
        assert_eq!(adopted, total, "every stripe drains");
        assert_eq!(b.orphan_len(), 0);
        drain_free(&b, &mut list);
        let s = b.stats.snapshot();
        assert_eq!(s.freed_nodes, s.retired_nodes, "conservation");
        b.release(0);
    }

    #[test]
    fn free_pool_cap_trims_recycled_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1).with_free_pool_cap(1));
        // Three sealed blocks, all freeable: the sweep recycles three
        // emptied boxes but the cap keeps only one.
        let mut list = filled(&b, 2, &[0, 0, 1, 1, 2, 2]);
        let freed = unsafe { sweep_retire_list(&b, 0, &mut list, |_| false) };
        assert_eq!(freed, 6);
        assert_eq!(list.free.len(), 1, "pool capped at the configured size");
        assert_eq!(b.stats.snapshot().pool_blocks_trimmed, 2);
    }

    #[test]
    fn hard_pressure_drops_the_free_pool_entirely() {
        // Watermarks of 1 put the gauge at Emergency from the first seal;
        // the sweep's epilogue must then trim the pool to zero even though
        // the configured cap would keep blocks around.
        let b = DomainBase::new(SmrConfig::for_tests(1).with_pressure_watermarks(1, 1, 1));
        let mut list = filled(&b, 2, &[0, 0, 5, 5]);
        assert!(b.stats.pressure().rung() >= PressureRung::Hard);
        let freed = unsafe { sweep_retire_list(&b, 0, &mut list, |r| r.retire_era() >= 5) };
        assert_eq!(freed, 2);
        assert!(
            list.free.is_empty(),
            "under hard pressure the recycled pool is ballast"
        );
        assert!(b.stats.snapshot().pool_blocks_trimmed >= 1);
        drain_free(&b, &mut list);
    }

    #[test]
    fn scan_elects_lowest_stalled_blocker_under_emergency() {
        let b = DomainBase::new(SmrConfig::for_tests(3).with_pressure_watermarks(1, 1, 1));
        for t in 0..3 {
            b.claim(t);
        }
        // Trip the gauge to Emergency so the scan performs its election.
        note_escalation(&b, 0, b.stats.pressure().on_retired(1));
        assert_eq!(b.stats.pressure().rung(), PressureRung::Emergency);
        // t0 idle, t1 pinned at 5, t2 pinned at 9: after enough unchanged
        // passes both pinned readers count as stalled, and the election
        // picks t1 (the floor-holder). With every live reader stalled the
        // relaxed floor is the non-stalled minimum — here none, u64::MAX.
        let words = [u64::MAX, 5u64, 9u64];
        let mut result = (0u64, None);
        for _ in 0..=crate::pressure::STALLED_AFTER_PASSES {
            result = scan_epoch_reservations(&b, u64::MAX, |t| words[t]);
        }
        let (min, rm) = result;
        assert_eq!(min, 5);
        let rm = rm.expect("emergency rung with a stalled floor-holder");
        assert_eq!(rm.blocker_tid, 1);
        assert_eq!(rm.blocker_word, 5);
        assert_eq!(rm.min, u64::MAX);
        // The stall streak resets the moment the word moves.
        let (_, rm) = scan_epoch_reservations(&b, u64::MAX, |t| if t == 1 { 6 } else { words[t] });
        assert!(
            rm.is_none_or(|rm| rm.blocker_tid != 1),
            "a moved word un-stalls its owner"
        );
        for t in 0..3 {
            b.release(t);
        }
    }
}
