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
//!    ([`DomainBase::push`]). The seal whose add crosses a multiple of
//!    `reclaim_freq` owes a pass, so passes fall due every `reclaim_freq`
//!    retires domain-wide, whichever thread retires them.
//! 3. **Take** — a pass seals its own open bins and moves every pooled
//!    block into its scratch ([`DomainBase::take`]) before it advances a
//!    clock, makes a reservation visible or scans one (the pass driver,
//!    `crate::pass`, which states why that order is safe).
//! 4. **Range test** — reservation-filter sweeps ([`free_unreserved`],
//!    [`free_era_unreserved`], [`free_before_epoch`]) first
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
//!    kept ([`DomainBase::count_kept`]). `unregister`'s final pass takes
//!    every open bin, and the reaper of a dead thread seals its open bins
//!    into the pool ([`DomainBase::reap_participant`]): no node is ever
//!    pooled unsealed, and no record is copied.
//!
//! The pool bounds garbage domain-wide: between passes it holds about
//! `reclaim_freq` new nodes plus what the last pass kept, and each thread
//! holds at most its open fill bins. A thread no longer keeps a private
//! backlog of its own.
//!
//! ## The clocks move with retires
//!
//! The epoch schemes' global word ([`EpochClock`]) and hazard eras' era
//! word move at two sites, both on the retire path: a pass advances its
//! clock first (`crate::pass`), and every seal that owes no pass is a
//! *tick* ([`Verdict::Tick`]: one `fetch_max` or `fetch_add`, no ping, no
//! fence, no scan). So the blocks a pass takes were retired across one
//! clock value per block, all but the newest older than the reclaimer's
//! own open operation, and the pass keeps under that operation only about
//! one block. The operation path writes no clock word. When the clock
//! moves affects only reclamation latency, never which frees are legal:
//! readers announce, and retirers tag, values of the same monotone word.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crossbeam_utils::CachePadded;
use parking_lot::Mutex;

use crate::config::SmrConfig;
use crate::header::{RetireBatch, Retired, RETIRE_BATCH_CAP};
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
/// Not a public type: the domain owns one per thread ([`DomainBase::push`]).
pub(crate) struct RetireList {
    /// Seal threshold (`1..=RETIRE_BATCH_CAP`).
    seal: usize,
    /// The fill bins, indexed by [`fill_bin`].
    fills: [Box<RetireBatch>; FILL_BINS],
    /// Recycled empty blocks (the allocation-free steady state).
    free: Blocks,
}

impl RetireList {
    fn new(seal: usize) -> Self {
        RetireList {
            seal: seal.clamp(1, RETIRE_BATCH_CAP),
            fills: core::array::from_fn(|_| RetireBatch::boxed()),
            free: Vec::new(),
        }
    }

    /// Hot-path append: routes to the node's slab bin. Returns the sealed
    /// block when this push filled the bin — the caller owes the amortized
    /// accounting ([`DomainBase::push`]).
    #[inline]
    fn push(&mut self, r: Retired) -> Option<Box<RetireBatch>> {
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

    /// Seals every non-empty fill bin (pass and reap paths), handing each
    /// block to `out`: after this no node waits unsealed. Returns the
    /// merged outcome (`nodes == 0` if all bins were empty).
    fn seal_partial(&mut self, mut out: impl FnMut(Box<RetireBatch>)) -> SealOutcome {
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
    fn leak(&mut self, mut b: Box<RetireBatch>) {
        // SAFETY: truncation abandons (leaks) the records, which is this
        // method's contract; nothing is double-read.
        unsafe { b.set_len(0) };
        self.free.push(b);
    }
}

/// Reusable per-thread buffers for reclamation passes.
///
/// Every buffer a pass needs lives here and is only ever `clear()`ed, never
/// dropped, so a steady-state pass performs **zero heap allocations** once
/// each buffer has grown to its working size (typically after the first
/// pass). The domain owns one per thread.
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
    /// The minimum announced epoch (the epoch engine's scan).
    pub floor: u64,
    /// Announced `[lower, upper]` epoch intervals (IBR).
    pub intervals: Vec<(u64, u64)>,
}

/// One thread's single-owner state: its fill bins and its pass scratch.
///
/// Soundness: only the thread that claimed the tid (enforced by
/// [`DomainBase::claim`]'s panic-on-double-claim), or the one reclaimer
/// that won the reap of its dead owner ([`DomainBase::reap_participant`]),
/// opens the cells, through [`DomainBase::cells`].
struct Cells(UnsafeCell<(RetireList, ReclaimScratch)>);

// SAFETY: the cell is confined to one thread at a time by the
// registration and reap protocols above; it is never aliased across
// threads.
unsafe impl Sync for Cells {}

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

/// State common to all reclamation domains.
pub(crate) struct DomainBase {
    pub cfg: SmrConfig,
    pub stats: Arc<DomainStats>,
    occupied: Box<[AtomicBool]>,
    /// Quarantined (poisoned) nodes when `cfg.quarantine` is set — the
    /// use-after-free detector.
    quarantine: Mutex<Vec<Retired>>,
    /// The retire pool (module docs): every sealed block no pass holds,
    /// striped by the pushing tid so seals from different threads take
    /// different mutexes. Freed on domain drop.
    pool: Box<[CachePadded<Mutex<Blocks>>]>,
    /// `pool.len() - 1` (stripe count is a power of two).
    pool_mask: usize,
    /// Nodes sealed by [`Self::push`] over the domain's life: a pass
    /// falls due each time it crosses a multiple of `reclaim_freq`.
    sealed: CachePadded<AtomicUsize>,
    /// Every tid's fill bins and pass scratch.
    threads: Box<[CachePadded<Cells>]>,
}

impl DomainBase {
    pub(crate) fn new(cfg: SmrConfig) -> Self {
        let n = cfg.max_threads;
        assert!(n >= 1, "domain needs at least one thread slot");
        let mut occupied = Vec::with_capacity(n);
        occupied.resize_with(n, || AtomicBool::new(false));
        let stripes = pool_stripes(n);
        let mut pool = Vec::with_capacity(stripes);
        pool.resize_with(stripes, || CachePadded::new(Mutex::new(Vec::new())));
        let threads = (0..n)
            .map(|_| {
                let list = RetireList::new(cfg.effective_batch());
                CachePadded::new(Cells(UnsafeCell::new((list, ReclaimScratch::default()))))
            })
            .collect();
        DomainBase {
            stats: Arc::new(DomainStats::new(n)),
            cfg,
            occupied: occupied.into_boxed_slice(),
            quarantine: Mutex::new(Vec::new()),
            pool: pool.into_boxed_slice(),
            pool_mask: stripes - 1,
            sealed: CachePadded::new(AtomicUsize::new(0)),
            threads,
        }
    }

    /// `tid`'s fill bins and pass scratch.
    ///
    /// # Safety
    ///
    /// The caller is `tid`'s registered owner, or won the reap of its dead
    /// owner ([`Self::reap_participant`]), and holds no other borrow of
    /// them.
    #[allow(clippy::mut_from_ref)]
    pub(crate) unsafe fn cells(&self, tid: usize) -> (&mut RetireList, &mut ReclaimScratch) {
        // SAFETY: single-owner contract above.
        let (list, scratch) = unsafe { &mut *self.threads[tid].0.get() };
        (list, scratch)
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
        self.occupied[tid].store(false, Ordering::Release);
    }

    pub(crate) fn is_registered(&self, tid: usize) -> bool {
        self.occupied[tid].load(Ordering::Acquire)
    }

    /// Recovers the domain-side state of a participant that died without
    /// deregistering: seals its open fill bins into the pool (nothing is
    /// leaked — passes filter them against reservations like any other
    /// garbage) and frees the domain tid for reuse. The slot release is
    /// last: the tid must not be reclaimable while its fill bins are still
    /// being moved.
    ///
    /// # Safety
    ///
    /// The caller is the unique accessor of the dead thread's [`Cells`]:
    /// it won the reap election for `dead_tid` *and* the process-global
    /// registry confirmed the thread dead (`Peers::reap_one_dead`).
    pub(crate) unsafe fn reap_participant(&self, reaper_tid: usize, dead_tid: usize) {
        // SAFETY: forwarded contract.
        let (list, _) = unsafe { self.cells(dead_tid) };
        let mut stripe = self.stripe(dead_tid).lock();
        self.seal_and_account(dead_tid, list, |b| stripe.push(b));
        drop(stripe);
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

    /// A pass's first step: seals `tid`'s own open fill bins and moves
    /// every pooled block into `taken`, one pointer per block, summaries
    /// untouched. It must come before the pass advances a clock or makes a
    /// reservation visible (`crate::pass`, "Why any pass may free any
    /// pooled block"). The pass ends with [`Self::put_back`].
    pub(crate) fn take(&self, tid: usize, list: &mut RetireList, taken: &mut Blocks) {
        for stripe in self.pool.iter() {
            taken.append(&mut stripe.lock());
        }
        self.seal_and_account(tid, list, |b| taken.push(b));
    }

    /// The amortized accounting every seal event owes: one `retired_nodes`
    /// bump for the sealed members and one `batches_sealed` event per block.
    fn account_seal(&self, tid: usize, outcome: SealOutcome) {
        let shard = self.stats.shard(tid);
        shard
            .retired_nodes
            .fetch_add(outcome.nodes as u64, Ordering::Relaxed);
        shard
            .batches_sealed
            .fetch_add(outcome.blocks, Ordering::Relaxed);
    }

    /// Seals every non-empty fill bin into `out` and performs the amortized
    /// accounting (the same bumps a hot-path seal gets in [`Self::push`],
    /// once per sealed block). These seals do not count toward the pass
    /// trigger: they happen on pass and reap paths.
    fn seal_and_account(
        &self,
        tid: usize,
        list: &mut RetireList,
        out: impl FnMut(Box<RetireBatch>),
    ) {
        let outcome = list.seal_partial(out);
        if outcome.nodes > 0 {
            self.account_seal(tid, outcome);
        }
    }

    /// The shared retire fast path: push into the node's slab fill bin of
    /// `tid` (the caller's registered tid); on a seal, run the amortized
    /// accounting, hand the block to the retire pool and return what the
    /// retire owes.
    ///
    /// A pass is due when the seal crosses a multiple of `reclaim_freq`
    /// nodes sealed domain-wide, so passes come once per `reclaim_freq` new
    /// retires however many threads retire them, and survivors pinned by a
    /// stalled reader (put back uncounted) never turn every seal into a
    /// pass. Every other seal is a tick.
    #[inline]
    pub(crate) fn push(&self, tid: usize, r: Retired) -> Verdict {
        // SAFETY: tid ownership per the registration contract; the borrow
        // ends with this call.
        let (list, _) = unsafe { self.cells(tid) };
        let Some(block) = list.push(r) else {
            return Verdict::Fill;
        };
        let nodes = block.len();
        self.account_seal(tid, SealOutcome { nodes, blocks: 1 });
        self.stripe(tid).lock().push(block);
        if self.count_sealed(nodes) {
            Verdict::Pass
        } else {
            Verdict::Tick
        }
    }

    /// NR's retire: [`Self::push`] without the pool. A sealed block is
    /// accounted and then abandoned, its records leaked and its box
    /// recycled, so even the leak baseline pays one stats RMW per block.
    pub(crate) fn leak(&self, tid: usize, r: Retired) {
        // SAFETY: tid ownership per the registration contract.
        let (list, _) = unsafe { self.cells(tid) };
        if let Some(block) = list.push(r) {
            let nodes = block.len();
            self.account_seal(tid, SealOutcome { nodes, blocks: 1 });
            list.leak(block);
        }
    }

    /// NR's flush: seals and abandons every open fill bin of `tid`.
    pub(crate) fn leak_open(&self, tid: usize) {
        // SAFETY: tid ownership per the registration contract.
        let (list, _) = unsafe { self.cells(tid) };
        let mut sealed = Vec::new();
        self.seal_and_account(tid, list, |b| sealed.push(b));
        for b in sealed {
            list.leak(b);
        }
    }

    /// Returns a pass's surviving blocks to the pool. They are not counted
    /// again ([`Self::count_kept`] aside): the next trigger waits for
    /// `reclaim_freq` new retires.
    pub(crate) fn put_back(&self, tid: usize, taken: &mut Blocks) {
        if !taken.is_empty() {
            self.stripe(tid).lock().append(taken);
        }
    }

    /// Number of quarantined nodes (test observability).
    #[cfg_attr(not(test), allow(dead_code))]
    pub(crate) fn quarantine_len(&self) -> usize {
        self.quarantine.lock().len()
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
        for mut b in self.pool.iter_mut().flat_map(|s| s.get_mut().drain(..)) {
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

/// What a retire owes after [`DomainBase::push`], weakest first. Every verdict
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

/// A sweep's verdict for one sealed block, decided **before** any record
/// is touched (see the module-level lifecycle).
pub(crate) enum BlockPlan {
    /// Every member survives: keep the block without moving a record.
    KeepAll,
    /// Every member is freeable: free the block whole (one stats update).
    FreeAll,
    /// Mixed: bit `i` set means slot `i` survives; compact in place.
    Mask(u32),
}

/// Cap on each thread's recycled-block free pool, in blocks. A pool this
/// size absorbs every steady-state sweep's recycling without allocator
/// traffic; a retire burst that grows it past the cap is trimmed back at
/// the next sweep instead of holding its high-water mark forever.
pub(crate) const FREE_POOL_CAP: usize = 32;

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
    if list.free.len() > FREE_POOL_CAP {
        let trimmed = (list.free.len() - FREE_POOL_CAP) as u64;
        list.free.truncate(FREE_POOL_CAP);
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
pub(crate) unsafe fn free_era_unreserved(
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
            let (min_birth, _, max_retire) = b.era_ranges();
            // Reserved eras overlapping the block's lifespan envelope;
            // every member's `[birth, retire]` lies inside the envelope,
            // so eras outside the window can hit no member.
            let window = reserved_window(reserved, min_birth, max_retire);
            if window.is_empty() {
                return BlockPlan::FreeAll;
            }
            BlockPlan::Mask(keep_mask(b, |r| {
                era_range_reserved(window, r.birth_era(), r.retire_era())
            }))
        })
    }
}

/// The epoch floor of the epoch schemes' pass: `min` over every registered
/// thread's announcement (`u64::MAX` when none is registered).
/// `word_of(t)` must perform the scheme's ordered reservation load.
pub(crate) fn scan_epoch_reservations(base: &DomainBase, word_of: impl Fn(usize) -> u64) -> u64 {
    (0..base.cfg.max_threads)
        .filter(|&t| base.is_registered(t))
        .map(word_of)
        .min()
        .unwrap_or(u64::MAX)
}

/// Frees every entry retired strictly before epoch `min` (the epoch
/// engine's sweep: EBR, EpochPOP, VBR). Returns the number freed.
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
pub(crate) unsafe fn free_before_epoch(
    base: &DomainBase,
    tid: usize,
    list: &mut RetireList,
    taken: &mut Blocks,
    min: u64,
) -> usize {
    // SAFETY: forwarded contract.
    unsafe {
        sweep_blocks(base, tid, list, taken, |b| {
            let (_, min_retire, max_retire) = b.era_ranges();
            if max_retire < min {
                return BlockPlan::FreeAll;
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
            base: DomainBase::new(
                SmrConfig::for_tests(1)
                    .with_reclaim_freq(1 << 30)
                    .with_retire_batch(RETIRE_BATCH_CAP),
            ),
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
                self.base.push(0, r);
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
        // SAFETY: the harness is tid 0's only user, and this is the only
        // borrow of its cells.
        let (list, scratch) = unsafe { self.base.cells(0) };
        self.base.take(0, list, &mut scratch.taken);
        // SAFETY: harness nodes are never shared; any entry is freeable.
        unsafe { free_unreserved(&self.base, 0, list, &mut scratch.taken, reserved) }
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

    /// A domain of `n` tids whose fill bins seal every `seal` nodes.
    fn domain(n: usize, seal: usize) -> DomainBase {
        DomainBase::new(SmrConfig::for_tests(n).with_retire_batch(seal))
    }

    /// `t`'s fill bins. The test thread owns every tid, and each borrow
    /// ends before the next call into the domain.
    #[allow(clippy::mut_from_ref)]
    fn list(b: &DomainBase, t: usize) -> &mut RetireList {
        unsafe { b.cells(t).0 }
    }

    /// Nodes waiting in `t`'s open fill bins.
    fn open_len(b: &DomainBase, t: usize) -> usize {
        list(b, t).fills.iter().map(|f| f.len()).sum()
    }

    /// The pool, taken as `t`'s pass takes it.
    fn take(b: &DomainBase, t: usize) -> Blocks {
        let mut set = Vec::new();
        b.take(t, list(b, t), &mut set);
        set
    }

    /// Pushes `recs` as tid 0 and takes the pool as a pass would: the
    /// returned set holds every one of them, sealed.
    fn taken(b: &DomainBase, recs: Vec<Retired>) -> Blocks {
        for r in recs {
            b.push(0, r);
        }
        take(b, 0)
    }

    /// A pass's set (from one fill bin) with `eras` as both birth and
    /// retire eras.
    fn filled(b: &DomainBase, eras: &[u64]) -> Blocks {
        taken(b, run(b, eras.iter().map(|&e| (e, e))))
    }

    fn eras_of(set: &[Box<RetireBatch>]) -> Vec<u64> {
        set.iter()
            .flat_map(|b| b.nodes())
            .map(|r| r.birth_era())
            .collect()
    }

    fn drain_free(b: &DomainBase, set: &mut Blocks) {
        unsafe { sweep_retire_list(b, 0, list(b, 0), set, |_| false) };
        assert!(set.is_empty());
    }

    /// One pass's reclamation as the driver orders it: the take first,
    /// then (after the reservation scan) the sweep.
    unsafe fn take_then_sweep(b: &DomainBase, t: usize) -> usize {
        let mut set = take(b, t);
        // SAFETY: forwarded contract.
        let freed = unsafe { sweep_retire_list(b, t, list(b, t), &mut set, |_| false) };
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
        let b = domain(1, 4);
        let mut recs = run(&b, (0..4).map(|i| (i, i))).into_iter();
        for r in recs.by_ref().take(3) {
            assert_eq!(b.push(0, r), Verdict::Fill);
        }
        assert_eq!(
            b.stats.snapshot().retired_nodes,
            0,
            "no stats RMW before the seal"
        );
        assert_eq!(open_len(&b, 0), 3);
        assert_eq!(b.pool_len(), 0);
        b.push(0, recs.next().unwrap());
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, 4, "seal accounts the whole block");
        assert_eq!(s.batches_sealed, 1);
        assert_eq!(
            (open_len(&b, 0), b.pool_len()),
            (0, 4),
            "the block is pooled"
        );
        assert_eq!(unsafe { take_then_sweep(&b, 0) }, 4);
    }

    #[test]
    fn push_triggers_on_each_multiple_of_reclaim_freq_domain_wide() {
        // Two retirers, seal threshold 3, reclaim_freq 8: the seals add
        // 3, 6, 9, 12, 15, 18, 21, 24 nodes to the domain's count, and the
        // ones crossing 8, 16 and 24 owe the passes, whichever thread
        // sealed them.
        let b = DomainBase::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(8)
                .with_retire_batch(3),
        );
        let mut recs = run(&b, (0..24).map(|i| (i, i))).into_iter();
        let mut passes = Vec::new();
        for seal in 1..=8 {
            let t = seal % 2;
            let verdicts: Vec<Verdict> = recs.by_ref().take(3).map(|r| b.push(t, r)).collect();
            assert_eq!(verdicts[..2], [Verdict::Fill, Verdict::Fill]);
            if verdicts[2] == Verdict::Pass {
                passes.push(seal);
            }
        }
        assert_eq!(passes, vec![3, 6, 8], "one pass per reclaim_freq sealed");
        assert_eq!(b.pool_len(), 24, "every seal pooled");
        assert_eq!(unsafe { take_then_sweep(&b, 0) }, 24);
    }

    #[test]
    fn put_back_survivors_do_not_count_toward_the_trigger() {
        // Survivors pinned by a stalled reader go back to the pool; the
        // next pass must still wait for `reclaim_freq` new retires, not
        // fire at every seal.
        let b = DomainBase::new(
            SmrConfig::for_tests(1)
                .with_reclaim_freq(8)
                .with_retire_batch(4),
        );
        let mut recs = run(&b, (0..16).map(|i| (i, i))).into_iter();
        let first: Vec<Verdict> = recs.by_ref().take(8).map(|r| b.push(0, r)).collect();
        assert_eq!(first[7], Verdict::Pass);
        // A pass that frees nothing (all pinned) puts everything back.
        let mut set = take(&b, 0);
        let freed = unsafe { sweep_retire_list(&b, 0, list(&b, 0), &mut set, |_| true) };
        assert_eq!(freed, 0);
        b.put_back(0, &mut set);
        assert_eq!(b.pool_len(), 8, "everything pinned, back in the pool");
        let verdicts: Vec<Verdict> = recs.map(|r| b.push(0, r)).collect();
        let passes = verdicts.iter().filter(|&&v| v == Verdict::Pass).count();
        assert_eq!(passes, 1, "pinned survivors must not cause O(n^2) passes");
        assert_eq!(verdicts[7], Verdict::Pass, "the 8th new retire owes it");
        assert_eq!(unsafe { take_then_sweep(&b, 0) }, 16);
    }

    #[test]
    fn free_unreserved_respects_reservations() {
        let b = domain(1, 1);
        let mut set = filled(&b, &[0, 0, 0]);
        let kept = set[1].nodes()[0].ptr() as u64;
        let reserved = vec![kept];
        let freed = unsafe { free_unreserved(&b, 0, list(&b, 0), &mut set, &reserved) };
        assert_eq!(freed, 2);
        assert_eq!(node_count(&set), 1);
        assert_eq!(set[0].nodes()[0].ptr() as u64, kept);
        drain_free(&b, &mut set);
    }

    #[test]
    fn sweep_preserves_survivor_order_without_reallocating() {
        // The block sweep must keep survivors in their taken order and
        // must not allocate: emptied blocks recycle into the free pool.
        // Seal threshold 3: eras spread over three blocks of three.
        let b = domain(1, 3);
        let mut set = filled(&b, &[0, 1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(set.len(), 3);
        let keep: Vec<u64> = vec![1, 4, 6];
        let kept_ptrs: Vec<u64> = set
            .iter()
            .flat_map(|blk| blk.nodes())
            .filter(|r| keep.contains(&r.birth_era()))
            .map(|r| r.ptr() as u64)
            .collect();
        let freed = unsafe {
            sweep_retire_list(&b, 0, list(&b, 0), &mut set, |r| {
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
        drain_free(&b, &mut set);
    }

    #[test]
    fn sweep_block_fast_paths_count_whole_blocks() {
        // Three full blocks of 2: eras (0,0), (5,5), (0,5).
        let b = domain(1, 2);
        let mut set = filled(&b, &[0, 0, 5, 5, 0, 5]);
        // Keep era 5: block 0 freed whole, block 1 kept whole, block 2
        // compacts.
        let freed =
            unsafe { sweep_retire_list(&b, 0, list(&b, 0), &mut set, |r| r.birth_era() == 5) };
        assert_eq!(freed, 3);
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_freed_whole, 1, "all-freeable block fast path");
        assert_eq!(s.blocks_kept_whole, 1, "all-survivor block fast path");
        assert_eq!(eras_of(&set), vec![5, 5, 5]);
        // Recycled block feeds the next fill: no allocation.
        assert_eq!(list(&b, 0).free.len(), 1);
        drain_free(&b, &mut set);
    }

    #[test]
    fn take_seals_and_accounts_the_open_bins() {
        let b = domain(1, 8);
        for i in 0..5 {
            b.push(0, mk(&b, i, i));
        }
        assert_eq!(b.stats.snapshot().retired_nodes, 0, "sub-batch: unsealed");
        let freed = unsafe { take_then_sweep(&b, 0) };
        assert_eq!(freed, 5);
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, 5, "a pass seals its own open bins");
        assert_eq!(s.freed_nodes, 5);
        assert_eq!(open_len(&b, 0), 0);
    }

    #[test]
    fn free_before_epoch_sweeps_by_retire_era() {
        let b = domain(1, RETIRE_BATCH_CAP);
        let mut set = taken(&b, run(&b, [(0, 3), (0, 7), (0, 5)]));
        let freed = unsafe { free_before_epoch(&b, 0, list(&b, 0), &mut set, 5) };
        assert_eq!(freed, 1, "only retire era 3 < 5 is freeable");
        let survivors: Vec<u64> = set
            .iter()
            .flat_map(|blk| blk.nodes())
            .map(|r| r.retire_era())
            .collect();
        assert_eq!(survivors, vec![7, 5]);
        drain_free(&b, &mut set);
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
        let b = domain(1, RETIRE_BATCH_CAP);
        // lifespans: [1,2] freeable, [4,6] blocked by era 5, [7,9] freeable
        let recs = [(1, 2), (4, 6), (7, 9)]
            .into_iter()
            .map(|(birth, retire)| mk(&b, birth, retire))
            .collect();
        let mut set = taken(&b, recs);
        let freed = unsafe { free_era_unreserved(&b, 0, list(&b, 0), &mut set, &[3, 5, 10]) };
        assert_eq!(freed, 2);
        assert_eq!(eras_of(&set), vec![4]);
        drain_free(&b, &mut set);
    }

    #[test]
    fn reap_seals_open_bins_into_the_pool() {
        let stats;
        {
            let b = domain(2, RETIRE_BATCH_CAP);
            stats = Arc::clone(&b.stats);
            // Two sub-batch nodes: not yet accounted.
            b.push(0, mk(&b, 0, 0));
            b.push(0, mk(&b, 0, 0));
            assert_eq!(stats.snapshot().retired_nodes, 0);
            // SAFETY: the test thread owns every tid.
            unsafe { b.reap_participant(1, 0) };
            assert_eq!(open_len(&b, 0), 0, "everything handed to the domain");
            let s = stats.snapshot();
            assert_eq!(s.retired_nodes, 2, "partial batch sealed, not leaked");
            assert_eq!(s.freed_nodes, 0);
            assert_eq!(s.participants_reaped, 1);
            assert_eq!(b.pool_len(), 2);
        }
        assert_eq!(stats.snapshot().freed_nodes, 2, "the pool is freed on drop");
    }

    #[test]
    fn a_pass_takes_every_stripe_and_never_recounts() {
        // Four tids pool blocks on four stripes; one pass takes them all
        // and frees them, conserving nodes exactly.
        let b = domain(4, 2);
        let per = 6;
        for t in 0..4 {
            for r in run(&b, (0..per).map(|i| (i, i))) {
                b.push(t, r);
            }
            assert_eq!(open_len(&b, t), 0, "one bin, sealed every 2");
        }
        let total = 4 * per as usize;
        assert_eq!(b.pool_len(), total);
        let retired_before = b.stats.snapshot().retired_nodes;
        let freed = unsafe { take_then_sweep(&b, 0) };
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
        let b = domain(2, 2);
        let mut set = take(&b, 0);
        for r in run(&b, [(0, 0), (0, 0)]) {
            b.push(1, r);
        }
        assert_eq!(b.pool_len(), 2);
        let freed = unsafe { free_unreserved(&b, 0, list(&b, 0), &mut set, &[]) };
        assert_eq!(freed, 0, "the sweep frees only what its pass took");
        assert_eq!(b.pool_len(), 2, "the block stays pooled");
        let freed = unsafe { take_then_sweep(&b, 0) };
        assert_eq!(freed, 2, "the next pass takes it");
        assert_eq!(b.pool_len(), 0);
    }

    #[test]
    fn leak_recycles_boxes() {
        let b = domain(1, 2);
        for r in run(&b, (0..4).map(|i| (i, i))) {
            b.leak(0, r);
        }
        assert_eq!(open_len(&b, 0), 0);
        assert_eq!(list(&b, 0).free.len(), 1, "block boxes return to the pool");
        assert_eq!(b.stats.snapshot().retired_nodes, 4);
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
    fn push_ticks_at_every_seal_but_a_pass() {
        // reclaim_freq 64, seal threshold 2: every seal is a tick except
        // the one that completes a pass period, which advances the clock
        // itself.
        let b = DomainBase::new(
            SmrConfig::for_tests(1)
                .with_reclaim_freq(64)
                .with_retire_batch(2),
        );
        let push = |n: u64| -> Vec<Verdict> {
            run(&b, (0..n).map(|i| (i, i)))
                .into_iter()
                .map(|r| b.push(0, r))
                .collect()
        };
        let verdicts = push(128);
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
        assert_eq!(push(10).last(), Some(&Verdict::Tick));
        let mut set = take(&b, 0);
        unsafe { sweep_retire_list(&b, 0, list(&b, 0), &mut set, |_| true) };
        assert_eq!(node_count(&set), 138);
        b.put_back(0, &mut set);
        let after = push(54);
        assert!(after[..53].iter().all(|&v| v != Verdict::Pass));
        assert_eq!(after[1], Verdict::Tick);
        assert_eq!(after[53], Verdict::Pass);
        assert_eq!(unsafe { take_then_sweep(&b, 0) }, 192);
    }

    #[test]
    fn free_unreserved_range_test_frees_disjoint_blocks_whole() {
        // Two full blocks of 2; reservations exist but none falls inside
        // any block's pointer span.
        let b = domain(1, 2);
        let mut set = filled(&b, &[0, 0, 0, 0]);
        let max_ptr = set
            .iter()
            .flat_map(|blk| blk.nodes())
            .map(|r| r.ptr() as u64)
            .max()
            .unwrap();
        // Non-empty reserved set strictly above every block pointer.
        let reserved = vec![max_ptr + 64, max_ptr + 128];
        let freed = unsafe { free_unreserved(&b, 0, list(&b, 0), &mut set, &reserved) };
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
        let b = domain(1, RETIRE_BATCH_CAP);
        // 257: not a multiple of the block size.
        let lifespans: Vec<(u64, u64)> = (0..257u64).map(|i| (i, i + i % 7)).collect();
        let twin = || {
            let recs: Vec<Retired> = lifespans.iter().map(|&(b0, r0)| mk(&b, b0, r0)).collect();
            let ptrs = recs.iter().map(|r| r.ptr() as u64).collect::<Vec<u64>>();
            (taken(&b, recs), ptrs)
        };
        let survivors = |set: &mut Blocks| {
            let mut v = eras_of(set);
            v.sort_unstable();
            drain_free(&b, set);
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
        let freed = unsafe { free_unreserved(&b, 0, list(&b, 0), &mut fast, &fr) };
        let freed_ref = unsafe {
            sweep_retire_list(&b, 0, list(&b, 0), &mut slow, |r| {
                sr.binary_search(&(r.ptr() as u64)).is_ok()
            })
        };
        assert_eq!(freed, 257 - fr.len());
        assert_eq!(freed, freed_ref);
        assert_eq!(survivors(&mut fast), survivors(&mut slow), "pointers");

        let eras = [3, 40, 41, 100, 250];
        let (mut fast, _) = twin();
        let (mut slow, _) = twin();
        let freed = unsafe { free_era_unreserved(&b, 0, list(&b, 0), &mut fast, &eras) };
        let freed_ref = unsafe {
            sweep_retire_list(&b, 0, list(&b, 0), &mut slow, |r| {
                era_range_reserved(&eras, r.birth_era(), r.retire_era())
            })
        };
        assert!(freed > 0 && freed < 257);
        assert_eq!(freed, freed_ref);
        assert_eq!(survivors(&mut fast), survivors(&mut slow), "eras");

        let (mut fast, _) = twin();
        let (mut slow, _) = twin();
        let freed = unsafe { free_before_epoch(&b, 0, list(&b, 0), &mut fast, 120) };
        let freed_ref =
            unsafe { sweep_retire_list(&b, 0, list(&b, 0), &mut slow, |r| r.retire_era() >= 120) };
        assert_eq!(freed, freed_ref);
        assert_eq!(survivors(&mut fast), survivors(&mut slow), "epochs");
    }

    #[test]
    fn free_era_unreserved_envelope_frees_whole_blocks() {
        // Block 0: lifespans within [0, 5]; block 1: within [20, 25].
        let b = domain(1, 3);
        let mut set = filled(&b, &[0, 3, 5, 20, 22, 25]);
        // Reserved era 10 sits between the two envelopes: both blocks are
        // freed whole by the range test.
        let freed = unsafe { free_era_unreserved(&b, 0, list(&b, 0), &mut set, &[10]) };
        assert_eq!(freed, 6);
        assert_eq!(b.stats.snapshot().blocks_freed_whole, 2);
        // Mixed case: era 3 pins only part of block 0's twin.
        let mut set = filled(&b, &[0, 3, 5, 20, 22, 25]);
        let freed = unsafe { free_era_unreserved(&b, 0, list(&b, 0), &mut set, &[3, 10]) };
        assert_eq!(freed, 5, "only the [3,3] lifespan survives");
        assert_eq!(eras_of(&set), vec![3]);
        drain_free(&b, &mut set);
    }

    #[test]
    fn free_before_epoch_summary_decides_whole_blocks() {
        let b = domain(1, 2);
        // Blocks of 2 with retire eras (1,2) freeable, (8,9) kept, (4,6)
        // straddling min = 5.
        let recs = run(&b, [(0, 1), (0, 2), (0, 8), (0, 9), (0, 4), (0, 6)]);
        let mut set = taken(&b, recs);
        let freed = unsafe { free_before_epoch(&b, 0, list(&b, 0), &mut set, 5) };
        assert_eq!(freed, 3, "retire eras 1, 2 and 4 are below the bound");
        let s = b.stats.snapshot();
        assert_eq!(s.blocks_freed_whole, 1, "the (1,2) block freed whole");
        assert_eq!(s.blocks_kept_whole, 1, "the (8,9) block kept untouched");
        drain_free(&b, &mut set);
    }

    #[test]
    fn one_bin_seals_in_retire_order() {
        // Nodes routed to one bin seal in retire order: one block per
        // `seal` nodes, the remainder sealed by the take as one partial
        // block.
        let b = domain(1, 4);
        for r in run(&b, (0..10).map(|i| (i, i))) {
            b.push(0, r);
        }
        let s = b.stats.snapshot();
        assert_eq!(s.batches_sealed, 2, "seals at 4 and 8 exactly");
        assert_eq!(s.retired_nodes, 8, "fill holds 2 unsealed nodes");
        let mut set = take(&b, 0);
        let s = b.stats.snapshot();
        assert_eq!(s.batches_sealed, 3, "one partial block from one bin");
        assert_eq!(s.retired_nodes, 10);
        assert_eq!(eras_of(&set), (0..10).collect::<Vec<u64>>());
        drain_free(&b, &mut set);
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
        let b = domain(1, 8);
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
        let mut set = taken(&b, recs);
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
        drain_free(&b, &mut set);
    }

    #[test]
    fn partial_bins_seal_at_reap_and_conserve() {
        // With many bins, several partial fill blocks are open when a dead
        // thread is reaped; every one must be sealed (accounted once per
        // block) and pooled — no node unsealed, no node leaked.
        let b = domain(2, RETIRE_BATCH_CAP);
        let n = 21u64;
        for i in 0..n {
            b.push(0, mk(&b, i, i));
        }
        assert_eq!(b.stats.snapshot().retired_nodes, 0, "all still filling");
        let open_bins = list(&b, 0).fills.iter().filter(|f| !f.is_empty()).count() as u64;
        assert!(open_bins >= 1);
        // SAFETY: the test thread owns every tid.
        unsafe { b.reap_participant(1, 0) };
        assert_eq!(open_len(&b, 0), 0, "everything handed to the domain");
        let s = b.stats.snapshot();
        assert_eq!(s.retired_nodes, n, "partial bins sealed, not leaked");
        assert_eq!(s.batches_sealed, open_bins, "one seal event per bin");
        assert_eq!(b.pool_len(), n as usize);
        // A pass takes the pooled blocks and frees them: conservation.
        let freed = unsafe { take_then_sweep(&b, 1) };
        assert_eq!(freed as u64, n);
        assert_eq!(b.pool_len(), 0);
        assert_eq!(b.stats.snapshot().freed_nodes, n, "allocated == freed");
    }

    #[test]
    fn extrema_survive_the_pool() {
        // Put back blocks whose summaries are built, take them again, and
        // verify they arrive with both halves cached and are decided whole
        // from them without touching a record.
        let b = domain(1, 4);
        let mut set = filled(&b, &[0, 1, 2, 3, 4, 5, 6, 7]);
        // A keep-everything epoch sweep computes the era half.
        let freed = unsafe { free_before_epoch(&b, 0, list(&b, 0), &mut set, 0) };
        assert_eq!(freed, 0);
        assert!(set.iter().all(|blk| blk.summary_is_cached()));
        b.put_back(0, &mut set);
        let mut again = take(&b, 0);
        assert_eq!(node_count(&again), 8, "both blocks taken again");
        for blk in &again {
            assert!(
                blk.summary_is_cached(),
                "block-granular pooling must not drop the extrema"
            );
        }
        let kept_before = b.stats.snapshot().blocks_kept_whole;
        let freed = unsafe { free_before_epoch(&b, 0, list(&b, 0), &mut again, 0) };
        assert_eq!(freed, 0);
        assert_eq!(
            b.stats.snapshot().blocks_kept_whole,
            kept_before + 2,
            "pooled blocks range-test whole from surviving summaries"
        );
        drain_free(&b, &mut again);
    }

    #[test]
    fn free_pool_cap_trims_recycled_blocks() {
        // Two more sealed blocks than the cap, all freeable: the sweep
        // recycles every emptied box but the cap keeps only FREE_POOL_CAP.
        let b = domain(1, 2);
        let eras: Vec<u64> = (0..FREE_POOL_CAP as u64 + 2).flat_map(|e| [e, e]).collect();
        let mut set = filled(&b, &eras);
        let freed = unsafe { sweep_retire_list(&b, 0, list(&b, 0), &mut set, |_| false) };
        assert_eq!(freed, eras.len());
        assert_eq!(list(&b, 0).free.len(), FREE_POOL_CAP, "pool capped");
        assert_eq!(b.stats.snapshot().pool_blocks_trimmed, 2);
    }

    #[test]
    fn epoch_scan_ignores_unregistered_slots() {
        // tid 2 announces 7; tid 1's live-looking 3 belongs to no
        // registered thread (never claimed, or left without clearing).
        let b = DomainBase::new(SmrConfig::for_tests(4));
        let words = [u64::MAX, 3, 7, u64::MAX];
        b.claim(2);
        let min = scan_epoch_reservations(&b, |t| words[t]);
        assert_eq!(min, 7, "only registered announcements set the floor");
        b.release(2);
        let min = scan_epoch_reservations(&b, |t| words[t]);
        assert_eq!(min, u64::MAX, "no registered thread: no floor");
    }
}
