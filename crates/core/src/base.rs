//! Domain plumbing shared by every scheme: thread-slot occupancy, the
//! per-thread fill bins, the domain's retire pool, the epoch clock,
//! reusable reclamation scratch and the quarantine use-after-free
//! detector.
//!
//! ## Batch lifecycle (fill → seal → pool → take → sweep → put back)
//!
//! A retired node fills a thread-private bin; a full bin seals into a
//! block, and the block goes to the domain's **retire pool**, the only
//! place sealed blocks live. A pass takes the whole pool, sweeps what it
//! took and puts the survivors back:
//!
//! ```text
//!            retire(ptr)
//!                │  bin = (ptr / SLAB_BYTES) % FILL_BINS
//!                ▼
//!   ┌──── fill bins (thread-private) ────┐
//!   │ [bin 0][bin 1]  ··· [bin 6][bin 7] │   pointer extrema kept
//!   └─────────────────┬──────────────────┘   at push
//!                     │ bin reaches retire_batch (or flush, unregister,
//!                     ▼ reap: every open bin)
//!     retire pool (domain-wide, striped by sealing tid) ◀────┐
//!                     │ a pass takes it all at its start     │ survivors,
//!                     ▼ (one pointer move per block)         │ not recounted
//!   sweep: range test ▸ per-node window test ▸ compact ──────┘
//!        freed whole (one slab: one settle) │ box → sweeper's free pool
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
//!    `reclaim_freq`), the block goes to the pool as one pointer. Only
//!    here do the amortized costs run: one `retired_nodes` bump for the
//!    whole block and one `fetch_add` on the domain's seal counter
//!    ([`push_retired`]). The seal whose add crosses a multiple of
//!    `reclaim_freq` owes a pass, so passes fall due every `reclaim_freq`
//!    retires domain-wide, whichever thread retires them.
//! 3. **Take** — a pass seals its own open bins and moves every pooled
//!    block into its scratch ([`DomainBase::take`]) before it advances a
//!    clock, makes a reservation visible or scans one.
//! 4. **Range test** — reservation-filter sweeps ([`free_unreserved`],
//!    [`free_era_unreserved`], [`free_before_epoch_with_stalled`]) first
//!    test each block's key extrema against the sorted reserved set: a
//!    block whose span contains no reserved word is freed whole, and a
//!    block whose every member is provably pinned is kept whole, *without
//!    touching a single record* (Hyaline/Crystalline-style batch-granular
//!    filtering).
//! 5. **Per-node test** — a block the range test cannot decide tests each
//!    record once against the *narrowed* reserved window (the words inside
//!    the block's span): a binary search for pointers,
//!    [`era_range_reserved`] for lifespans. Survivors compact in place and
//!    keep their retire order within each block. IBR's interval test rides
//!    the same block driver with its own per-node predicate
//!    ([`keep_mask`]).
//! 6. **Free/recycle, put back** — a wholly-freed block confined to one
//!    slab settles against it in one step; emptied block boxes return to
//!    the sweeper's free pool, so steady-state retire + reclaim performs
//!    **zero heap allocations** once the pools reach working size. The
//!    surviving blocks go back to the pool whole, extrema intact
//!    ([`DomainBase::put_back`]), and do not count toward the next
//!    trigger — but for EpochPOP's, which counts what a triggered pass
//!    kept ([`DomainBase::count_kept`]). `unregister` (and the reaper of a dead thread) seals every
//!    open bin into the pool ([`DomainBase::orphan_remaining`]): no node is
//!    ever pooled unsealed, and no record is copied.
//!
//! **Why any pass may free any pooled block.** A block holds only nodes its
//! sealer unlinked before it pushed the block. The push happens-before the
//! take (the stripe mutex), and the take happens before the pass advances
//! its clock, makes reservations visible or scans them. So every node a
//! pass took was unlinked before its scan, exactly as if the pass had
//! retired it itself, and the pass's own predicate, which covers every
//! thread's reservations, decides it. A block pushed after the take waits
//! for the next pass: it may hold a node unlinked after this scan, which a
//! reader could have reserved unseen.
//!
//! The pool bounds garbage domain-wide: between passes it holds about
//! `reclaim_freq` new nodes plus what the last pass kept, and each thread
//! holds at most its open fill bins. A thread no longer keeps a private
//! backlog of its own.
//!
//! ## The clocks move with retires
//!
//! The epoch schemes' global word ([`EpochClock`]) and hazard eras' era
//! word move at two sites, both on the retire path: a reclaimer pass
//! advances its clock first, and every seal that does not trigger a pass
//! is a *tick* ([`Verdict::Tick`]: one `fetch_max` or `fetch_add`, no
//! ping, no fence, no scan). So the blocks a pass takes were retired
//! across one clock value per block, all but the newest older than the
//! reclaimer's own open operation, and the pass keeps under that operation
//! only what was retired since the last seal (about one block), not the
//! whole batch. The operation path writes no clock word. Safety is
//! unaffected: readers announce (or reserve), and retirers tag, values of
//! the same monotone word, so *when* it advances only affects reclamation
//! latency, never which frees are legal.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::config::SmrConfig;
use crate::header::{RetireBatch, Retired, RETIRE_BATCH_CAP};
use crate::pressure::{Escalation, PressureRung, StallTracker, HARD_RETRY_LIMIT};
use crate::slab::SLAB_BYTES;
use crate::stats::DomainStats;

// Keep masks pack one bit per block slot into a u32.
const _: () = assert!(RETIRE_BATCH_CAP <= 32, "BlockPlan::Mask is a u32");

/// Sealed blocks, each handed around *as one pointer* — between the fill
/// bins, the retire pool, a pass's scratch, the free pool and Hyaline's
/// global batches — so moves are 8 bytes, not 1 KiB+.
#[allow(clippy::vec_box)]
pub(crate) type Blocks = Vec<Box<RetireBatch>>;

/// Nodes held in `blocks`.
pub(crate) fn node_count(blocks: &[Box<RetireBatch>]) -> usize {
    blocks.iter().map(|b| b.len()).sum()
}

/// Retire-pool stripes for a domain of `n` thread slots: a small power of
/// two so seals from different tids take different mutexes, without a
/// per-tid mutex forest on wide domains.
fn pool_stripes(n: usize) -> usize {
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

/// A thread's fill bins and its recycled block boxes (see the module-level
/// lifecycle). Sealed blocks leave it at once.
///
/// Not a public type: schemes own one per thread behind a [`RetireSlot`].
pub(crate) struct RetireList {
    /// Seal threshold (`1..=RETIRE_BATCH_CAP`).
    seal: usize,
    /// The fill bins, indexed by [`fill_bin`].
    fills: [Box<RetireBatch>; FILL_BINS],
    /// Recycled empty blocks (the allocation-free steady state).
    free: Blocks,
}

impl RetireList {
    pub(crate) fn new(seal: usize) -> Self {
        RetireList {
            seal: seal.clamp(1, RETIRE_BATCH_CAP),
            fills: core::array::from_fn(|_| RetireBatch::boxed()),
            free: Vec::new(),
        }
    }

    /// Nodes waiting in the open fill bins.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.fills.iter().map(|b| b.len()).sum()
    }

    /// Hot-path append: routes to the node's slab bin. Returns the sealed
    /// block when this push filled the bin — the caller owes the amortized
    /// accounting ([`push_retired`]).
    #[inline]
    pub(crate) fn push(&mut self, r: Retired) -> Option<Box<RetireBatch>> {
        let bin = fill_bin(r.ptr() as u64);
        self.fills[bin].push(r);
        if self.fills[bin].len() >= self.seal {
            Some(self.seal_bin(bin))
        } else {
            None
        }
    }

    fn seal_bin(&mut self, bin: usize) -> Box<RetireBatch> {
        let fresh = self.free.pop().unwrap_or_else(RetireBatch::boxed);
        core::mem::replace(&mut self.fills[bin], fresh)
    }

    /// Seals every non-empty fill bin (flush, pass and unregister paths),
    /// handing each block to `out`: after this no node waits unsealed.
    /// Returns the merged outcome (`nodes == 0` if all bins were empty).
    pub(crate) fn seal_partial(&mut self, mut out: impl FnMut(Box<RetireBatch>)) -> SealOutcome {
        let mut outcome = SealOutcome::default();
        for bin in 0..FILL_BINS {
            if !self.fills[bin].is_empty() {
                let b = self.seal_bin(bin);
                outcome.nodes += b.len();
                outcome.blocks += 1;
                out(b);
            }
        }
        outcome
    }

    /// Abandons every record of a sealed block (NR's deliberate leak) and
    /// recycles its box. `Retired` has no `Drop`, so clearing the length
    /// leaks exactly the recorded allocations.
    pub(crate) fn leak(&mut self, mut b: Box<RetireBatch>) {
        // SAFETY: truncation abandons (leaks) the records, which is this
        // method's contract; nothing is double-read.
        unsafe { b.set_len(0) };
        self.free.push(b);
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
    /// The blocks the running pass took from the retire pool; empty
    /// between passes.
    pub taken: Blocks,
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

/// The global epoch of EBR, EpochPOP, VBR and IBR: one word (module docs,
/// "The clocks move with retires"). Readers announce it and retirers tag
/// with it; retire ticks and reclaimer passes advance it.
pub(crate) struct EpochClock {
    word: CachePadded<AtomicU64>,
}

impl EpochClock {
    pub(crate) fn new() -> Self {
        EpochClock {
            word: CachePadded::new(AtomicU64::new(1)),
        }
    }

    /// The current epoch (readers announce this; retirers tag it).
    #[inline(always)]
    pub(crate) fn current(&self) -> u64 {
        self.word.load(Ordering::Acquire)
    }

    /// Moves the word past the value this call loaded. `fetch_max` rather
    /// than `fetch_add`: concurrent advances from the same value fold into
    /// one step, and the word is strictly larger on return either way.
    /// Returns the epoch after the advance.
    #[inline]
    pub(crate) fn advance(&self) -> u64 {
        let next = self.word.load(Ordering::Acquire) + 1;
        self.word.fetch_max(next, Ordering::AcqRel).max(next)
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

/// State common to all reclamation domains.
pub(crate) struct DomainBase {
    pub cfg: SmrConfig,
    pub stats: Arc<DomainStats>,
    /// Per-participant pinned-reservation age, fed by scheme min-scans;
    /// drives the emergency-rung stalled-reader detection.
    pub stall: StallTracker,
    occupied: Box<[AtomicBool]>,
    /// Quarantined (poisoned) nodes when `cfg.quarantine` is set — the
    /// use-after-free detector, unrelated to the pressure quarantine.
    quarantine: Mutex<Vec<Retired>>,
    /// Stalled-reader quarantine (pressure emergency rung): whole sealed
    /// blocks keyed by the blocking reservation, handed back to a pass by
    /// [`Self::reclaim_released_quarantine`] the moment the blocker
    /// advances or is reaped. Quarantined nodes leave the gauge's
    /// actionable count but are still owed to the allocator (freed on
    /// release-and-sweep, or at domain drop).
    pressure_quarantine: Mutex<Vec<QuarantinedBlock>>,
    /// Lock-free node-count hint for `pressure_quarantine` (skip the
    /// mutex while nothing is parked — the permanent common case).
    pq_hint: AtomicUsize,
    /// The retire pool (module docs): every sealed block no pass holds,
    /// striped by the pushing tid so seals from different threads take
    /// different mutexes. Freed on domain drop.
    pool: Box<[CachePadded<Mutex<Blocks>>]>,
    /// `pool.len() - 1` (stripe count is a power of two).
    pool_mask: usize,
    /// Nodes sealed by [`push_retired`] over the domain's life: a pass
    /// falls due each time it crosses a multiple of `reclaim_freq`.
    sealed: CachePadded<AtomicUsize>,
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
        let mut reaping = Vec::with_capacity(n);
        reaping.resize_with(n, || AtomicBool::new(false));
        let stripes = pool_stripes(n);
        let mut pool = Vec::with_capacity(stripes);
        pool.resize_with(stripes, || CachePadded::new(Mutex::new(Vec::new())));
        DomainBase {
            stats: Arc::new(DomainStats::with_pressure(n, cfg.pressure_gauge())),
            stall: StallTracker::new(n),
            cfg,
            occupied: occupied.into_boxed_slice(),
            quarantine: Mutex::new(Vec::new()),
            pressure_quarantine: Mutex::new(Vec::new()),
            pq_hint: AtomicUsize::new(0),
            pool: pool.into_boxed_slice(),
            pool_mask: stripes - 1,
            sealed: CachePadded::new(AtomicUsize::new(0)),
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
    /// deregistering: seals its open fill bins into the pool (nothing is
    /// leaked — passes filter them against reservations like any other
    /// garbage) and frees the domain tid for reuse. The slot release is
    /// last: the tid must not be reclaimable while its fill bins are still
    /// being moved.
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
        self.release(dead_tid);
        self.stats
            .shard(reaper_tid)
            .participants_reaped
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Frees (or quarantines) one retired object **without** stats — the
    /// building block under [`Self::free_block`] and the batched sweep.
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

    /// Frees every node of one sealed block with a single stats update
    /// (Hyaline's batch settlement), accounting them on the calling
    /// reclaimer's stat shard.
    ///
    /// # Safety
    ///
    /// The scheme must have proven no thread can access any member, and
    /// `tid` must be the caller's registered domain thread id.
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

    /// `tid`'s pool stripe.
    fn stripe(&self, tid: usize) -> &Mutex<Blocks> {
        &self.pool[tid & self.pool_mask]
    }

    /// Counts `nodes` freshly sealed ones; true when they cross a multiple
    /// of `reclaim_freq`, i.e. a pass is due.
    #[inline]
    fn count_sealed(&self, nodes: usize) -> bool {
        let freq = self.cfg.reclaim_freq;
        let before = self.sealed.fetch_add(nodes, Ordering::Relaxed);
        (before + nodes) / freq != before / freq
    }

    /// Counts `kept` nodes a pass put back toward the trigger, as if they
    /// were sealed anew, so the next pass falls due when the pool holds
    /// `reclaim_freq` nodes again (EpochPOP, `schemes::epoch`). Stops
    /// short of the next multiple: that crossing, and its pass, belong to
    /// a seal.
    pub(crate) fn count_kept(&self, kept: usize) {
        let freq = self.cfg.reclaim_freq;
        let _ = self
            .sealed
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |s| {
                Some(s + kept.min(freq - 1 - s % freq))
            });
    }

    /// Unregistration and reap hand-off: seals every open fill bin (with
    /// its amortized accounting) into the pool, one pointer move per block,
    /// extrema intact. No node is pooled unsealed, and none is leaked.
    pub(crate) fn orphan_remaining(&self, tid: usize, list: &mut RetireList) {
        let mut stripe = self.stripe(tid).lock();
        seal_and_account(self, tid, list, |b| stripe.push(b));
    }

    /// A pass's first step: seals `tid`'s own open fill bins and moves
    /// every pooled block into `taken`, one pointer per block, summaries
    /// untouched. It must come before the pass advances a clock or makes a
    /// reservation visible (module docs, "Why any pass may free any pooled
    /// block"). The pass ends with [`Self::put_back`].
    pub(crate) fn take(&self, tid: usize, list: &mut RetireList, taken: &mut Blocks) {
        for stripe in self.pool.iter() {
            taken.append(&mut stripe.lock());
        }
        seal_and_account(self, tid, list, |b| taken.push(b));
    }

    /// Returns a pass's surviving blocks to the pool. They are not counted
    /// again ([`Self::count_kept`] aside): the next trigger waits for
    /// `reclaim_freq` new retires.
    pub(crate) fn put_back(&self, tid: usize, taken: &mut Blocks) {
        if !taken.is_empty() {
            self.stripe(tid).lock().append(taken);
        }
    }

    /// Releases every pressure-quarantined block whose blocker has moved
    /// on — deregistered, reaped, or no longer holding its pinned
    /// reservation word (`blocked(tid, word)` is the scheme's "still
    /// pinned by exactly this reservation" test). Released blocks join
    /// the calling pass's `taken` set, so the very pass that observes the
    /// release also filters and frees them: a cleared stall drains within
    /// one pass. Runs in every full pass; the lock-free hint makes it a
    /// no-op while nothing is parked.
    pub(crate) fn reclaim_released_quarantine(
        &self,
        tid: usize,
        taken: &mut Blocks,
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
            taken.push(qb.block);
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

    /// Ladder rung 2, run after a retire-triggered pass: while the hard
    /// watermark stays breached, the retire turns into synchronous
    /// reclamation — at most [`HARD_RETRY_LIMIT`] more passes, each after
    /// `nudge` (signal schemes re-ping their suspects) and a growing spin
    /// backoff that gives laggards a window to advance.
    #[inline]
    pub(crate) fn hard_rung_retries(&self, mut nudge: impl FnMut(), mut pass: impl FnMut()) {
        let mut tries = 0u32;
        while tries < HARD_RETRY_LIMIT && self.stats.pressure().rung() >= PressureRung::Hard {
            nudge();
            for _ in 0..(64u32 << tries) {
                core::hint::spin_loop();
            }
            pass();
            tries += 1;
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

    /// Nodes in the retire pool (test observability).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn pool_len(&self) -> usize {
        self.pool.iter().map(|s| node_count(&s.lock())).sum()
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
        // All participants are gone: quarantined and pooled nodes can be
        // deallocated for real. No tid exists here — count on the overflow
        // shard.
        for r in self.quarantine.get_mut().drain(..) {
            // SAFETY: no registered threads remain, so no reader exists.
            unsafe { r.free() };
        }
        let overflow = self.stats.overflow();
        // The stalled-reader quarantine too: the blockers are gone with
        // everyone else, so the parked blocks are freeable — conservation
        // holds (allocated == freed) across a drop with a live quarantine.
        let parked = self
            .pressure_quarantine
            .get_mut()
            .drain(..)
            .map(|qb| qb.block);
        let pooled = self.pool.iter_mut().flat_map(|s| s.get_mut().drain(..));
        for mut b in pooled.chain(parked) {
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

/// Seals every non-empty fill bin into `out` and performs the amortized
/// accounting (the same bumps a hot-path seal gets in [`push_retired`],
/// once per sealed block). These seals do not count toward the pass
/// trigger: they happen on flush, pass and unregister paths.
pub(crate) fn seal_and_account(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    out: impl FnMut(Box<RetireBatch>),
) {
    let outcome = list.seal_partial(out);
    if outcome.nodes > 0 {
        account_seal(base, tid, outcome);
    }
}

/// What a retire owes after [`push_retired`], weakest first. Every verdict
/// but `Fill` means a block just sealed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Verdict {
    /// The node joined a fill bin; nothing is owed.
    Fill,
    /// A block sealed: advance the clock (module docs, "The clocks move
    /// with retires"). Not a pass: no ping, no fence, no scan.
    Tick,
    /// A block sealed and a reclamation pass is due; it advances the clock
    /// itself.
    Pass,
}

/// The shared retire fast path: push into the node's slab fill bin; on a
/// seal, run the amortized accounting, hand the block to the retire pool
/// and return what the retire owes.
///
/// A pass is due when the seal crosses a multiple of `reclaim_freq` nodes
/// sealed domain-wide, so passes come once per `reclaim_freq` new retires
/// however many threads retire them, and survivors pinned by a stalled
/// reader (put back uncounted) never turn every seal into a pass. Every
/// other seal is a tick.
#[inline]
pub(crate) fn push_retired(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    r: Retired,
) -> Verdict {
    let Some(block) = list.push(r) else {
        return Verdict::Fill;
    };
    let nodes = block.len();
    account_seal(base, tid, SealOutcome { nodes, blocks: 1 });
    base.stripe(tid).lock().push(block);
    if base.count_sealed(nodes) {
        Verdict::Pass
    } else {
        Verdict::Tick
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

/// Block-granular sweep driver under every reclamation pass: walks the
/// blocks the pass took (`taken`), executing the [`BlockPlan`] `plan`
/// returns for each. Survivors stay in `taken`, in their original order
/// within and across blocks, and per-node masks that turn out to cover (or
/// clear) a whole block are normalized onto the no-touch whole-block
/// paths. Allocation-free: emptied blocks recycle into `list`'s free pool.
/// Returns the number freed.
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
    taken: &mut Blocks,
    mut plan: impl FnMut(&mut RetireBatch) -> BlockPlan,
) -> usize {
    let shard = base.stats.shard(tid);
    let nblocks = taken.len();
    let blocks_ptr = taken.as_mut_ptr();
    // Defensive: if a free panics mid-sweep, neither vector may expose
    // half-moved entries. Truncating first leaks not-yet-rewritten blocks
    // on unwind instead of double-freeing them (`Retired` and
    // `RetireBatch` have no Drop impls).
    // SAFETY: elements stay initialized; we manage them manually below.
    unsafe { taken.set_len(0) };
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
                // pass (and the pool's re-scan loop) until the blocker's
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
    unsafe { taken.set_len(write_block) };
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
    taken: &mut Blocks,
    mut keep: impl FnMut(&Retired) -> bool,
) -> usize {
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, taken, |b| {
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
    taken: &mut Blocks,
    reserved: &[u64],
) -> usize {
    debug_assert!(reserved.windows(2).all(|w| w[0] <= w[1]));
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, taken, |b| {
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
    taken: &mut Blocks,
    reserved: &[u64],
) -> usize {
    // SAFETY: forwarded contract.
    unsafe { free_era_unreserved_with_stalled(base, tid, list, taken, reserved, None) }
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
    taken: &mut Blocks,
    reserved: &[u64],
    active: Option<(&[u64], usize, u64)>,
) -> usize {
    debug_assert!(reserved.windows(2).all(|w| w[0] <= w[1]));
    debug_assert!(active.is_none_or(|(a, _, _)| a.windows(2).all(|w| w[0] <= w[1])));
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, taken, |b| {
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

/// Frees every entry retired strictly before epoch `min` (the epoch
/// engine's sweep: EBR, EpochPOP, VBR). Returns the number freed.
///
/// Per block: the cached retire-era extrema decide most blocks whole
/// (`min_retire >= min` keeps, `max_retire < min` frees) without touching
/// a record; only straddling blocks pay the per-node comparison.
///
/// The stalled-reader escape hatch, `relaxed` (emergency rung only):
/// blocks whose entire retire range lies below `relaxed.min` — provably
/// pinned **only** by the known-stalled blocker — are parked in the domain
/// quarantine instead of being re-scanned every pass. Parking is
/// conservative: the blocks are not freed, and
/// [`DomainBase::reclaim_released_quarantine`] re-filters them against
/// *all* live reservations once the blocker's epoch moves, so a
/// mis-ranked blocker costs a deferred sweep, never a premature free.
///
/// # Safety
///
/// `min` must be a lower bound on every registered thread's announced
/// epoch — nodes retired before it are unreachable — and `relaxed.min` (when
/// given) a lower bound on every registered **non-stalled** thread's. `tid`
/// must be the caller's registered domain thread id.
pub(crate) unsafe fn free_before_epoch_with_stalled(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    taken: &mut Blocks,
    min: u64,
    relaxed: Option<&RelaxedMin>,
) -> usize {
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, taken, |b| {
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
    taken: Blocks,
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
            taken: Vec::new(),
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
        self.base.take(0, &mut self.list, &mut self.taken);
        // SAFETY: harness nodes are never shared; any entry is freeable.
        unsafe { free_unreserved(&self.base, 0, &mut self.list, &mut self.taken, reserved) }
    }

    /// Frees every node still held (survivors between iterations).
    pub fn drain(&mut self) {
        self.sweep(&[]);
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

    /// Pushes `recs` through `list` and takes the pool as a pass would:
    /// the returned set holds every one of them, sealed.
    fn taken(base: &DomainBase, list: &mut RetireList, recs: Vec<Retired>) -> Blocks {
        for r in recs {
            push_retired(base, 0, list, r);
        }
        let mut set = Vec::new();
        base.take(0, list, &mut set);
        set
    }

    /// A pass's set (from one fill bin) with `eras` as both birth and
    /// retire eras, sealed every `seal` nodes.
    fn filled(base: &DomainBase, seal: usize, eras: &[u64]) -> (RetireList, Blocks) {
        let mut list = RetireList::new(seal);
        let set = taken(base, &mut list, run(base, eras.iter().map(|&e| (e, e))));
        (list, set)
    }

    fn eras_of(set: &[Box<RetireBatch>]) -> Vec<u64> {
        set.iter()
            .flat_map(|b| b.nodes())
            .map(|r| r.birth_era())
            .collect()
    }

    fn drain_free(base: &DomainBase, list: &mut RetireList, set: &mut Blocks) {
        unsafe { sweep_retire_list(base, 0, list, set, |_| false) };
        assert!(set.is_empty());
    }

    /// One pass's reclamation as the engines order it: the take first,
    /// then (after the reservation scan) the sweep.
    unsafe fn take_then_sweep(b: &DomainBase, list: &mut RetireList) -> usize {
        let mut set = Vec::new();
        b.take(0, list, &mut set);
        // SAFETY: forwarded contract.
        let freed = unsafe { sweep_retire_list(b, 0, list, &mut set, |_| false) };
        assert!(set.is_empty());
        freed
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
    fn push_seals_at_threshold_and_accounts_lazily() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(4);
        let mut recs = run(&b, (0..4).map(|i| (i, i))).into_iter();
        for r in recs.by_ref().take(3) {
            assert_eq!(push_retired(&b, 0, &mut list, r), Verdict::Fill);
        }
        assert_eq!(
            b.stats.snapshot().retired_nodes,
            0,
            "no stats RMW before the seal"
        );
        assert_eq!(list.len(), 3);
        assert_eq!(b.pool_len(), 0);
        push_retired(&b, 0, &mut list, recs.next().unwrap());
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, 4, "seal accounts the whole block");
        assert_eq!(s.batches_sealed, 1);
        assert_eq!((list.len(), b.pool_len()), (0, 4), "the block is pooled");
        assert_eq!(unsafe { take_then_sweep(&b, &mut list) }, 4);
    }

    #[test]
    fn push_retired_triggers_on_each_multiple_of_reclaim_freq_domain_wide() {
        // Two retirers, seal threshold 3, reclaim_freq 8: the seals add
        // 3, 6, 9, 12, 15, 18, 21, 24 nodes to the domain's count, and the
        // ones crossing 8, 16 and 24 owe the passes, whichever thread
        // sealed them.
        let b = DomainBase::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
        let mut lists = [RetireList::new(3), RetireList::new(3)];
        let mut recs = run(&b, (0..24).map(|i| (i, i))).into_iter();
        let mut passes = Vec::new();
        for seal in 1..=8 {
            let t = seal % 2;
            let verdicts: Vec<Verdict> = recs
                .by_ref()
                .take(3)
                .map(|r| push_retired(&b, t, &mut lists[t], r))
                .collect();
            assert_eq!(verdicts[..2], [Verdict::Fill, Verdict::Fill]);
            if verdicts[2] == Verdict::Pass {
                passes.push(seal);
            }
        }
        assert_eq!(passes, vec![3, 6, 8], "one pass per reclaim_freq sealed");
        assert_eq!(b.pool_len(), 24, "every seal pooled");
        assert_eq!(unsafe { take_then_sweep(&b, &mut lists[0]) }, 24);
    }

    #[test]
    fn put_back_survivors_do_not_count_toward_the_trigger() {
        // Survivors pinned by a stalled reader go back to the pool; the
        // next pass must still wait for `reclaim_freq` new retires, not
        // fire at every seal.
        let b = DomainBase::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let mut list = RetireList::new(4);
        let mut recs = run(&b, (0..16).map(|i| (i, i))).into_iter();
        let first: Vec<Verdict> = recs
            .by_ref()
            .take(8)
            .map(|r| push_retired(&b, 0, &mut list, r))
            .collect();
        assert_eq!(first[7], Verdict::Pass);
        // A pass that frees nothing (all pinned) puts everything back.
        let mut set = Vec::new();
        b.take(0, &mut list, &mut set);
        let freed = unsafe { sweep_retire_list(&b, 0, &mut list, &mut set, |_| true) };
        assert_eq!(freed, 0);
        b.put_back(0, &mut set);
        assert_eq!(b.pool_len(), 8, "everything pinned, back in the pool");
        let verdicts: Vec<Verdict> = recs.map(|r| push_retired(&b, 0, &mut list, r)).collect();
        let passes = verdicts.iter().filter(|&&v| v == Verdict::Pass).count();
        assert_eq!(passes, 1, "pinned survivors must not cause O(n^2) passes");
        assert_eq!(verdicts[7], Verdict::Pass, "the 8th new retire owes it");
        assert_eq!(unsafe { take_then_sweep(&b, &mut list) }, 16);
    }

    #[test]
    fn free_unreserved_respects_reservations() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let (mut list, mut set) = filled(&b, 1, &[0, 0, 0]);
        let kept = set[1].nodes()[0].ptr() as u64;
        let reserved = vec![kept];
        let freed = unsafe { free_unreserved(&b, 0, &mut list, &mut set, &reserved) };
        assert_eq!(freed, 2);
        assert_eq!(node_count(&set), 1);
        assert_eq!(set[0].nodes()[0].ptr() as u64, kept);
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn sweep_preserves_survivor_order_without_reallocating() {
        // The block sweep must keep survivors in their taken order and
        // must not allocate: emptied blocks recycle into the free pool.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Seal threshold 3: eras spread over three blocks of three.
        let (mut list, mut set) = filled(&b, 3, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(set.len(), 3);
        let keep: Vec<u64> = vec![1, 4, 6];
        let kept_ptrs: Vec<u64> = set
            .iter()
            .flat_map(|blk| blk.nodes())
            .filter(|r| keep.contains(&r.birth_era()))
            .map(|r| r.ptr() as u64)
            .collect();
        let freed = unsafe {
            sweep_retire_list(&b, 0, &mut list, &mut set, |r| {
                keep.contains(&r.birth_era())
            })
        };
        assert_eq!(freed, 6);
        assert_eq!(node_count(&set), 3);
        assert_eq!(
            eras_of(&set),
            keep,
            "survivors must keep their original relative order"
        );
        let survivor_ptrs: Vec<u64> = set
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
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn sweep_block_fast_paths_count_whole_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Three full blocks of 2: eras (0,0), (5,5), (0,5).
        let (mut list, mut set) = filled(&b, 2, &[0, 0, 5, 5, 0, 5]);
        // Keep era 5: block 0 freed whole, block 1 kept whole, block 2
        // compacts.
        let freed =
            unsafe { sweep_retire_list(&b, 0, &mut list, &mut set, |r| r.birth_era() == 5) };
        assert_eq!(freed, 3);
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_freed_whole, 1, "all-freeable block fast path");
        assert_eq!(s.blocks_kept_whole, 1, "all-survivor block fast path");
        assert_eq!(eras_of(&set), vec![5, 5, 5]);
        // Recycled block feeds the next fill: no allocation.
        assert_eq!(list.free.len(), 1);
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn take_seals_and_accounts_the_open_bins() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(8);
        for i in 0..5 {
            push_retired(&b, 0, &mut list, mk(&b, i, i));
        }
        assert_eq!(b.stats.snapshot().retired_nodes, 0, "sub-batch: unsealed");
        let freed = unsafe { take_then_sweep(&b, &mut list) };
        assert_eq!(freed, 5);
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, 5, "a pass seals its own open bins");
        assert_eq!(s.freed_nodes, 5);
        assert_eq!(list.len(), 0);
    }

    #[test]
    fn free_before_epoch_sweeps_by_retire_era() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(RETIRE_BATCH_CAP);
        let mut set = taken(&b, &mut list, run(&b, [(0, 3), (0, 7), (0, 5)]));
        let freed = unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, &mut set, 5, None) };
        assert_eq!(freed, 1, "only retire era 3 < 5 is freeable");
        let survivors: Vec<u64> = set
            .iter()
            .flat_map(|blk| blk.nodes())
            .map(|r| r.retire_era())
            .collect();
        assert_eq!(survivors, vec![7, 5]);
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn quarantine_poisons_instead_of_freeing() {
        let b = DomainBase::new(SmrConfig::for_tests(1).with_quarantine());
        let r = mk(&b, 0, 0);
        let ptr = r.ptr();
        let mut blk = RetireBatch::boxed();
        blk.push(r);
        unsafe { b.free_block(0, &mut blk) };
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
        let recs = [(1, 2), (4, 6), (7, 9)]
            .into_iter()
            .map(|(birth, retire)| mk(&b, birth, retire))
            .collect();
        let mut set = taken(&b, &mut list, recs);
        let freed = unsafe { free_era_unreserved(&b, 0, &mut list, &mut set, &[3, 5, 10]) };
        assert_eq!(freed, 2);
        assert_eq!(eras_of(&set), vec![4]);
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn orphan_remaining_seals_open_bins_into_the_pool() {
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
            assert_eq!(list.len(), 0, "everything handed to the domain");
            let s = stats.snapshot();
            assert_eq!(s.retired_nodes, 2, "partial batch sealed, not leaked");
            assert_eq!(s.freed_nodes, 0);
            assert_eq!(b.pool_len(), 2);
        }
        assert_eq!(stats.snapshot().freed_nodes, 2, "the pool is freed on drop");
    }

    #[test]
    fn a_pass_takes_every_stripe_and_never_recounts() {
        // Four tids pool blocks on four stripes; one pass takes them all
        // and frees them, conserving nodes exactly.
        let b = DomainBase::new(SmrConfig::for_tests(4));
        let per = 6;
        for t in 0..4 {
            let mut list = RetireList::new(2);
            for r in run(&b, (0..per).map(|i| (i, i))) {
                push_retired(&b, t, &mut list, r);
            }
            b.orphan_remaining(t, &mut list);
        }
        let total = 4 * per as usize;
        assert_eq!(b.pool_len(), total);
        let retired_before = b.stats.snapshot().retired_nodes;
        let freed = unsafe { take_then_sweep(&b, &mut RetireList::new(2)) };
        assert_eq!(freed, total, "one take drains every stripe");
        assert_eq!(b.pool_len(), 0);
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, retired_before, "the take recounts nothing");
        assert_eq!(s.freed_nodes, s.retired_nodes, "conservation");
    }

    #[test]
    fn a_block_pooled_after_the_take_waits_for_the_next_pass() {
        // A sweep filters against a reservation set scanned after its
        // take. A block pooled since may hold a node unlinked after that
        // scan, so the sweep must leave it: only the next take may claim
        // it.
        let b = DomainBase::new(SmrConfig::for_tests(2));
        let mut reclaimer = RetireList::new(RETIRE_BATCH_CAP);
        let mut set = Vec::new();
        b.take(0, &mut reclaimer, &mut set);
        let mut donor = RetireList::new(2);
        for r in run(&b, [(0, 0), (0, 0)]) {
            push_retired(&b, 1, &mut donor, r);
        }
        assert_eq!(b.pool_len(), 2);
        let freed = unsafe { free_unreserved(&b, 0, &mut reclaimer, &mut set, &[]) };
        assert_eq!(freed, 0, "the sweep frees only what its pass took");
        assert_eq!(b.pool_len(), 2, "the block stays pooled");
        let freed = unsafe { take_then_sweep(&b, &mut reclaimer) };
        assert_eq!(freed, 2, "the next pass takes it");
        assert_eq!(b.pool_len(), 0);
    }

    #[test]
    fn leak_recycles_boxes() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(2);
        for r in run(&b, (0..4).map(|i| (i, i))) {
            if let Some(block) = list.push(r) {
                list.leak(block);
            }
        }
        assert_eq!(list.len(), 0);
        assert_eq!(list.free.len(), 1, "block boxes return to the pool");
        // Intentional leak of 4 N allocations (NR semantics).
    }

    #[test]
    fn epoch_clock_advance_strictly_increases_the_word() {
        let c = EpochClock::new();
        assert_eq!(c.current(), 1);
        let mut last = c.current();
        for _ in 0..20 {
            let next = c.advance();
            assert!(next > last, "every advance must move the word");
            assert_eq!(c.current(), next);
            last = next;
        }
        // Concurrent advances fold (`fetch_max` from the value each one
        // loaded) but never move the word backwards.
        let c = Arc::new(c);
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        let before = c.current();
                        assert!(c.advance() > before);
                    }
                })
            })
            .collect();
        for r in racers {
            r.join().unwrap();
        }
        let end = c.current();
        assert!(end > last && end <= last + 2000, "folded: {end}");
    }

    #[test]
    fn push_retired_ticks_at_every_seal_but_a_pass() {
        // reclaim_freq 64, seal threshold 2: every seal is a tick except
        // the one that completes a pass period, which advances the clock
        // itself.
        let b = DomainBase::new(SmrConfig::for_tests(1).with_reclaim_freq(64));
        let mut list = RetireList::new(2);
        let push = |list: &mut RetireList, n: u64| -> Vec<Verdict> {
            run(&b, (0..n).map(|i| (i, i)))
                .into_iter()
                .map(|r| push_retired(&b, 0, list, r))
                .collect()
        };
        let verdicts = push(&mut list, 128);
        for (i, v) in verdicts.iter().enumerate() {
            let want = match (i + 1) % 64 {
                0 => Verdict::Pass,
                n if n % 2 == 0 => Verdict::Tick,
                _ => Verdict::Fill,
            };
            assert_eq!(*v, want, "retire {}", i + 1);
        }
        // A pass in between (flush, unregister) moves neither the ticks
        // nor the period: ten retires into a period, a pass that keeps
        // all 138 nodes, and the next pass is still due at the 192nd
        // sealed node, 54 retires on.
        assert_eq!(push(&mut list, 10).last(), Some(&Verdict::Tick));
        let mut set = Vec::new();
        b.take(0, &mut list, &mut set);
        unsafe { sweep_retire_list(&b, 0, &mut list, &mut set, |_| true) };
        assert_eq!(node_count(&set), 138);
        b.put_back(0, &mut set);
        let after = push(&mut list, 54);
        assert!(after[..53].iter().all(|&v| v != Verdict::Pass));
        assert_eq!(after[1], Verdict::Tick);
        assert_eq!(after[53], Verdict::Pass);
        assert_eq!(unsafe { take_then_sweep(&b, &mut list) }, 192);
    }

    #[test]
    fn free_unreserved_range_test_frees_disjoint_blocks_whole() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Two full blocks of 2; reservations exist but none falls inside
        // any block's pointer span.
        let (mut list, mut set) = filled(&b, 2, &[0, 0, 0, 0]);
        let max_ptr = set
            .iter()
            .flat_map(|blk| blk.nodes())
            .map(|r| r.ptr() as u64)
            .max()
            .unwrap();
        // Non-empty reserved set strictly above every block pointer.
        let reserved = vec![max_ptr + 64, max_ptr + 128];
        let freed = unsafe { free_unreserved(&b, 0, &mut list, &mut set, &reserved) };
        assert_eq!(freed, 4);
        assert!(set.is_empty());
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
        // `sweep_retire_list` run over twin sets — same lifespans,
        // different nodes, reservations drawn at the same positions — and
        // the survivors compare by birth era, the twins' shared tag.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // 257: not a multiple of the block size.
        let lifespans: Vec<(u64, u64)> = (0..257u64).map(|i| (i, i + i % 7)).collect();
        let twin = || {
            let mut list = RetireList::new(RETIRE_BATCH_CAP);
            let recs: Vec<Retired> = lifespans.iter().map(|&(b0, r0)| mk(&b, b0, r0)).collect();
            let ptrs = recs.iter().map(|r| r.ptr() as u64).collect::<Vec<u64>>();
            let set = taken(&b, &mut list, recs);
            (list, set, ptrs)
        };
        let survivors = |list: &mut RetireList, set: &mut Blocks| {
            let mut v = eras_of(set);
            v.sort_unstable();
            drain_free(&b, list, set);
            v
        };

        let (mut fast, mut fast_set, fast_ptrs) = twin();
        let (mut slow, mut slow_set, slow_ptrs) = twin();
        let every_fifth = |ptrs: &[u64]| {
            let mut r: Vec<u64> = ptrs.iter().copied().step_by(5).collect();
            r.sort_unstable();
            r
        };
        let (fr, sr) = (every_fifth(&fast_ptrs), every_fifth(&slow_ptrs));
        let freed = unsafe { free_unreserved(&b, 0, &mut fast, &mut fast_set, &fr) };
        let freed_ref = unsafe {
            sweep_retire_list(&b, 0, &mut slow, &mut slow_set, |r| {
                sr.binary_search(&(r.ptr() as u64)).is_ok()
            })
        };
        assert_eq!(freed, 257 - fr.len());
        assert_eq!(freed, freed_ref);
        assert_eq!(
            survivors(&mut fast, &mut fast_set),
            survivors(&mut slow, &mut slow_set),
            "pointers"
        );

        let eras = [3, 40, 41, 100, 250];
        let (mut fast, mut fast_set, _) = twin();
        let (mut slow, mut slow_set, _) = twin();
        let freed = unsafe { free_era_unreserved(&b, 0, &mut fast, &mut fast_set, &eras) };
        let freed_ref = unsafe {
            sweep_retire_list(&b, 0, &mut slow, &mut slow_set, |r| {
                era_range_reserved(&eras, r.birth_era(), r.retire_era())
            })
        };
        assert!(freed > 0 && freed < 257);
        assert_eq!(freed, freed_ref);
        assert_eq!(
            survivors(&mut fast, &mut fast_set),
            survivors(&mut slow, &mut slow_set),
            "eras"
        );

        let (mut fast, mut fast_set, _) = twin();
        let (mut slow, mut slow_set, _) = twin();
        let freed =
            unsafe { free_before_epoch_with_stalled(&b, 0, &mut fast, &mut fast_set, 120, None) };
        let freed_ref = unsafe {
            sweep_retire_list(&b, 0, &mut slow, &mut slow_set, |r| r.retire_era() >= 120)
        };
        assert_eq!(freed, freed_ref);
        assert_eq!(
            survivors(&mut fast, &mut fast_set),
            survivors(&mut slow, &mut slow_set),
            "epochs"
        );
    }

    #[test]
    fn free_era_unreserved_envelope_frees_whole_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        // Block 0: lifespans within [0, 5]; block 1: within [20, 25].
        let (mut list, mut set) = filled(&b, 3, &[0, 3, 5, 20, 22, 25]);
        // Reserved era 10 sits between the two envelopes: both blocks are
        // freed whole by the range test.
        let freed = unsafe { free_era_unreserved(&b, 0, &mut list, &mut set, &[10]) };
        assert_eq!(freed, 6);
        assert_eq!(b.stats.snapshot().blocks_freed_whole, 2);
        // Mixed case: era 3 pins only part of block 0's twin.
        let (mut list, mut set) = filled(&b, 3, &[0, 3, 5, 20, 22, 25]);
        let freed = unsafe { free_era_unreserved(&b, 0, &mut list, &mut set, &[3, 10]) };
        assert_eq!(freed, 5, "only the [3,3] lifespan survives");
        assert_eq!(eras_of(&set), vec![3]);
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn free_before_epoch_summary_decides_whole_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(2);
        // Blocks of 2 with retire eras (1,2) freeable, (8,9) kept, (4,6)
        // straddling min = 5.
        let recs = run(&b, [(0, 1), (0, 2), (0, 8), (0, 9), (0, 4), (0, 6)]);
        let mut set = taken(&b, &mut list, recs);
        let freed = unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, &mut set, 5, None) };
        assert_eq!(freed, 3, "retire eras 1, 2 and 4 are below the bound");
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_freed_whole, 1, "the (1,2) block freed whole");
        assert_eq!(s.blocks_kept_whole, 1, "the (8,9) block kept untouched");
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn one_bin_seals_in_retire_order() {
        // Nodes routed to one bin seal in retire order: one block per
        // `seal` nodes, the remainder sealed by the take as one partial
        // block.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let mut list = RetireList::new(4);
        for r in run(&b, (0..10).map(|i| (i, i))) {
            push_retired(&b, 0, &mut list, r);
        }
        let s = b.stats.snapshot();
        assert_eq!(s.batches_sealed, 2, "seals at 4 and 8 exactly");
        assert_eq!(s.retired_nodes, 8, "fill holds 2 unsealed nodes");
        let mut set = Vec::new();
        b.take(0, &mut list, &mut set);
        let s = b.stats.snapshot();
        assert_eq!(s.batches_sealed, 3, "one partial block from one bin");
        assert_eq!(s.retired_nodes, 10);
        assert_eq!(eras_of(&set), (0..10).collect::<Vec<u64>>());
        drain_free(&b, &mut list, &mut set);
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
        let recs = (0..64)
            .map(|i| {
                let p = Box::into_raw(Box::new(Wide {
                    hdr: Header::new(i, core::mem::size_of::<Wide>()),
                    _pad: [0; 4088],
                }));
                b.stats
                    .shard(0)
                    .allocated_nodes
                    .fetch_add(1, Ordering::Relaxed);
                unsafe { Retired::new(p) }
            })
            .collect();
        let mut set = taken(&b, &mut list, recs);
        assert_eq!(node_count(&set), 64, "conservation through binned seals");
        let mut residues = std::collections::BTreeSet::new();
        for blk in &set {
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
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn partial_bins_seal_at_unregister_and_conserve() {
        // With many bins, several partial fill blocks are open at
        // unregister; every one must be sealed (accounted once per block)
        // and pooled — no node unsealed, no node leaked.
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
        assert_eq!(list.len(), 0, "everything handed to the domain");
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, n, "partial bins sealed, not leaked");
        assert_eq!(s.batches_sealed, open_bins, "one seal event per bin");
        assert_eq!(b.pool_len(), n as usize);
        // A pass takes the pooled blocks and frees them: conservation.
        let freed = unsafe { take_then_sweep(&b, &mut RetireList::new(RETIRE_BATCH_CAP)) };
        assert_eq!(freed as u64, n);
        assert_eq!(b.pool_len(), 0);
        assert_eq!(b.stats.snapshot().freed_nodes, n, "allocated == freed");
    }

    #[test]
    fn extrema_survive_the_pool() {
        // Put back blocks whose summaries are built, take them again, and
        // verify they arrive with both halves cached and are decided whole
        // from them without touching a record.
        let b = DomainBase::new(SmrConfig::for_tests(1));
        let (mut list, mut set) = filled(&b, 4, &[0, 1, 2, 3, 4, 5, 6, 7]);
        // A keep-everything epoch sweep computes the era half.
        let freed = unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, &mut set, 0, None) };
        assert_eq!(freed, 0);
        assert!(set.iter().all(|blk| blk.summary_is_cached()));
        b.put_back(0, &mut set);
        let mut again = Vec::new();
        b.take(0, &mut RetireList::new(4), &mut again);
        assert_eq!(node_count(&again), 8, "both blocks taken again");
        for blk in &again {
            assert!(
                blk.summary_is_cached(),
                "block-granular pooling must not drop the extrema"
            );
        }
        let kept_before = b.stats.snapshot().blocks_kept_whole;
        let freed =
            unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, &mut again, 0, None) };
        assert_eq!(freed, 0);
        assert_eq!(
            b.stats.snapshot().blocks_kept_whole,
            kept_before + 2,
            "pooled blocks range-test whole from surviving summaries"
        );
        drain_free(&b, &mut list, &mut again);
    }

    #[test]
    fn quarantine_parks_releases_and_conserves() {
        let b = DomainBase::new(SmrConfig::for_tests(2).with_pressure_watermarks(4, 8, 12));
        b.claim(0);
        b.claim(1);
        // Two sealed blocks, all retire eras below the relaxed floor:
        // everything is provably pinned only by blocker tid 1's word 7.
        let (mut list, mut set) = filled(&b, 2, &[0, 0, 1, 1]);
        let rm = RelaxedMin {
            min: 10,
            blocker_tid: 1,
            blocker_word: 7,
        };
        let freed =
            unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, &mut set, 0, Some(&rm)) };
        assert_eq!(freed, 0, "quarantine never frees");
        assert!(set.is_empty(), "both blocks left the pass");
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
        b.reclaim_released_quarantine(0, &mut set, |t, w| {
            assert_eq!((t, w), (1, 7));
            true
        });
        assert!(set.is_empty());
        assert_eq!(b.pressure_quarantine_len(), 2);
        // Blocker's reservation moved: everything returns to the pass.
        b.reclaim_released_quarantine(0, &mut set, |_, _| false);
        assert_eq!(node_count(&set), 4, "released blocks rejoin the pass");
        assert_eq!(b.pressure_quarantine_len(), 0);
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_unquarantined, 2);
        assert_eq!(b.stats.pressure().quarantined(), 0);
        drain_free(&b, &mut list, &mut set);
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
        let (mut list, mut set) = filled(&b, 2, &[0, 0]);
        let rm = RelaxedMin {
            min: 10,
            blocker_tid: 1,
            blocker_word: 7,
        };
        unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, &mut set, 0, Some(&rm)) };
        assert_eq!(b.pressure_quarantine_len(), 1);
        // The blocker dies / deregisters: its pinned word no longer means
        // anything, even if the release predicate still claims it does.
        b.release(1);
        b.reclaim_released_quarantine(0, &mut set, |_, _| true);
        assert_eq!(node_count(&set), 2, "a reaped blocker releases its blocks");
        assert_eq!(b.pressure_quarantine_len(), 0);
        drain_free(&b, &mut list, &mut set);
        b.release(0);
    }

    #[test]
    fn quarantined_blocks_freed_at_drop_conserve() {
        let b = DomainBase::new(SmrConfig::for_tests(2).with_pressure_watermarks(4, 8, 12));
        b.claim(0);
        b.claim(1);
        let (mut list, mut set) = filled(&b, 2, &[0, 0, 1, 1]);
        let rm = RelaxedMin {
            min: 10,
            blocker_tid: 1,
            blocker_word: 7,
        };
        unsafe { free_before_epoch_with_stalled(&b, 0, &mut list, &mut set, 0, Some(&rm)) };
        assert_eq!(b.pressure_quarantine_len(), 2);
        let stats = Arc::clone(&b.stats);
        b.release(1);
        b.release(0);
        drop(b);
        let s = stats.snapshot();
        assert_eq!(s.freed_nodes, s.retired_nodes, "drop drains the quarantine");
    }

    #[test]
    fn free_pool_cap_trims_recycled_blocks() {
        let b = DomainBase::new(SmrConfig::for_tests(1).with_free_pool_cap(1));
        // Three sealed blocks, all freeable: the sweep recycles three
        // emptied boxes but the cap keeps only one.
        let (mut list, mut set) = filled(&b, 2, &[0, 0, 1, 1, 2, 2]);
        let freed = unsafe { sweep_retire_list(&b, 0, &mut list, &mut set, |_| false) };
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
        let (mut list, mut set) = filled(&b, 2, &[0, 0, 5, 5]);
        assert!(b.stats.pressure().rung() >= PressureRung::Hard);
        let freed =
            unsafe { sweep_retire_list(&b, 0, &mut list, &mut set, |r| r.retire_era() >= 5) };
        assert_eq!(freed, 2);
        assert!(
            list.free.is_empty(),
            "under hard pressure the recycled pool is ballast"
        );
        assert!(b.stats.snapshot().pool_blocks_trimmed >= 1);
        drain_free(&b, &mut list, &mut set);
    }

    #[test]
    fn epoch_scan_ignores_unregistered_slots() {
        // tid 2 announces 7; tid 1's live-looking 3 belongs to no
        // registered thread (never claimed, or left without clearing).
        let b = DomainBase::new(SmrConfig::for_tests(4));
        let words = [u64::MAX, 3, 7, u64::MAX];
        b.claim(2);
        let (min, rm) = scan_epoch_reservations(&b, u64::MAX, |t| words[t]);
        assert_eq!(min, 7, "only registered announcements set the floor");
        assert!(rm.is_none());
        b.release(2);
        let (min, _) = scan_epoch_reservations(&b, u64::MAX, |t| words[t]);
        assert_eq!(min, u64::MAX, "no registered thread: no floor");
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
