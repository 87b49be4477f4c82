//! The publish-on-ping engine shared by HazardPtrPOP, HazardEraPOP and
//! EpochPOP.
//!
//! Implements the paper's Algorithms 1–2 machinery: per-thread
//! `localReservations` (written with relaxed stores on the read path — *no
//! fence*), `sharedReservations` (SWMR slots filled by the signal handler),
//! the per-thread `publishCounter`, and the reclaimer-side
//! `collectPublishedCounters` / `pingAllToPublish` / `waitForAllPublished`
//! sequence. Reservation words are opaque `u64`s: pointer bits for
//! HazardPtrPOP/EpochPOP, era numbers for HazardEraPOP.
//!
//! ## A row is private until pinged
//!
//! One rule covers both publishing and clearing: *a row is private until
//! pinged; a ping publishes it if its owner is inside an operation and
//! publishes nothing otherwise.* Each thread maintains an *activity word*
//! (odd = inside an operation), bumped in `begin_op`/`end_op`.
//! [`PopShared::publish_tid`] — which only ever runs on the row's owner
//! (its signal handler, its own reclaim pass, its `unregister`) — copies
//! `local → shared` when that word is odd and stores an all-zero row when
//! it is even. `end_op` therefore clears nothing: it is the one Release
//! store of the activity word, and whatever the finished operation left in
//! `local` is dead by definition. Words a *running* operation has not
//! overwritten yet are published along with its live ones; they only widen
//! the keep set, by at most the `N × H` words the bound already allows. (An
//! era word in a slot the owner's operations stopped using is republished
//! until that slot is rewritten or a ping finds the owner quiescent.)
//!
//! ## Quiescent-thread ping filtering
//!
//! A reclaimer skips signalling a thread that is (a) quiescent (activity
//! word even) with (b) an empty *published* row — mirroring NBR+'s
//! signal-elision optimization. Safety rests on the same reachability
//! argument as EBR quiescence and this module's existing deregistration
//! skip, made rigorous by two `SeqCst` fences: the `begin_op` bump is a
//! store followed by a `SeqCst` fence, and the reclaimer executes a
//! `SeqCst` fence after its unlinks, before reading the word. Either
//! (i) the reclaimer observes the thread active and pings it, or (ii) the
//! reclaimer's fence precedes the thread's in the fence total order — in
//! which case (two-SC-fence rule) every load of that operation observes
//! the unlinks, so no `protect` validation can return a pointer to this
//! pass's retirees (unlinked nodes are unreachable from structure roots,
//! and traversals refuse to cross marked links). Threads whose *shared*
//! slots hold stale non-zero words are always pinged: skipping them would
//! let the stale reservations pin garbage forever.
//!
//! ## Publish-wait semantics (spin, then futex)
//!
//! `waitForAllPublished` spins for a configurable budget
//! ([`crate::config::SmrConfig::publish_spin`]), then **parks**: each
//! thread owns a 32-bit *publish word* (bumped by every
//! `publishReservations`, including the signal handler's), and the waiter
//! issues `futex(FUTEX_WAIT)` keyed on it. The handler `FUTEX_WAKE`s the
//! word only when a waiter has announced itself (a per-thread waiter
//! count, Dekker-ordered with `SeqCst` against the word bump: either the
//! waiter observes the new publish and never sleeps, or the publisher
//! observes the waiter and wakes it). Waits carry a timeout as the
//! liveness backstop — a peer can satisfy the wait *without* publishing
//! (deregistration observed via the `registered` flag, or a lost ping) —
//! and every wakeup re-checks the full exit condition. Off Linux the
//! `pop_runtime::futex` module yields instead of parking: same
//! correctness, but each retry burns a scheduler quantum on
//! oversubscribed hosts.
//!
//! ## Membarrier publish mode
//!
//! Under [`crate::config::PublishMode::Membarrier`] the signal fan-out
//! disappears entirely: readers write reservations **directly to their
//! shared slots** with plain relaxed stores (`set_local` routes there; the
//! private `local` array goes unused), `note_active` drops its `SeqCst`
//! fence, and `ping_all_and_wait` becomes one process-wide
//! `membarrier(2)` heavy barrier — after which every peer's prior stores
//! are visible and the existing `collect_reserved_into` scan reads them
//! with nothing to wait for. This is the Folly-style asymmetric fencing
//! the `HPAsym` baseline uses, grafted onto the POP slot machinery. There
//! the owner's store *is* the publish — no ping stands between a word and
//! the scan — so this is the one mode whose `end_op` still clears its row
//! eagerly.
//!
//! Three consequences are load-bearing:
//!
//! * **Publish is degenerate.** The process-global signal handler still
//!   runs on these threads (another domain sharing the process may ping
//!   them, and the PR 7 hard rung re-pings suspects per-participant).
//!   [`PopShared::publish_tid`] therefore *skips the local→shared copy*
//!   on membarrier-configured domains — the copy would overwrite live
//!   shared reservations with the unused (all-zero) local words — while
//!   keeping its fence, suspect-clear, counter bump and futex wake, so
//!   the signal path's handshake semantics survive a downgrade.
//! * **Ping filtering is off.** The quiescent elision rests on
//!   `note_active`'s fence pairing with the reclaimer's; with the fence
//!   gone the argument is void, so a membarrier-configured domain never
//!   elides a ping on its signal fallback path (it pings everyone). On
//!   the fast path there is nothing to elide — the whole fan-out is
//!   replaced, accounted as one `membarrier_passes` tick plus
//!   `signals_avoided += `(registered peers).
//! * **Death needs a probe.** The fast path has no waits, so the PR 6
//!   publish-wait watchdog never runs and a peer that died without
//!   deregistering would pin its stale shared words forever. Every
//!   [`MEMBARRIER_DEAD_PROBE_EVERY`] membarrier passes the reclaimer
//!   probes each registered peer's registry registration
//!   ([`PopShared::note_dead_if_confirmed`]) — the schemes' existing
//!   `reap_one_dead` then recovers confirmed corpses. Garbage a dead
//!   peer pins is thus bounded by the probe period, not unbounded.
//!
//! A heavy barrier that *fails mid-pass* (seccomp installed after init,
//! or an injected [`FaultSite::MembarrierFail`]) downgrades the domain
//! **stickily** to the signal fan-out: reservations keep living in the
//! shared slots (readers never change behavior), pings publish via the
//! degenerate handler, and the pass that observed the failure falls
//! through to the signal path it would otherwise have replaced.
//!
//! Instances are leaked (`&'static`) because the process-global signal
//! handler may dereference them at any time; see `pop-runtime` docs.

use core::sync::atomic::{fence, AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use pop_runtime::faults::{self, FaultSite};
use pop_runtime::signal::ping_gtid;
use pop_runtime::{futex, PingOutcome, Publisher, Registry};

use crate::base::{DomainBase, RetireList};
use crate::stats::DomainStats;

/// Timeout per parked publish wait (liveness backstop; see module docs).
const PUBLISH_WAIT_TIMEOUT_NS: u64 = 1_000_000;

/// Sentinel in a collected-counters buffer: do not wait for this thread.
const SKIP: u64 = u64::MAX;

/// Membarrier-mode dead-peer probe period, in membarrier passes: the fast
/// path has no publish waits, so the watchdog never sees a dead peer —
/// instead every this-many passes (and on the very first) the reclaimer
/// probes each registered peer's registry registration. Bounds both the
/// garbage a corpse can pin (one probe period) and the probe syscalls
/// (`O(threads / period)` amortized per pass).
const MEMBARRIER_DEAD_PROBE_EVERY: u64 = 64;

/// One cache line of reservation words — the unit rows are allocated in.
#[derive(Default)]
#[repr(align(64))]
pub(crate) struct Line([AtomicU64; LINE_WORDS]);

const LINE_WORDS: usize = 8;

/// `n` default (zero / `false`) cells — every per-thread array starts so.
fn zeroed<T: Default>(n: usize) -> Box<[T]> {
    (0..n).map(|_| T::default()).collect()
}

/// Per-thread reservation rows, the one layout every scheme with
/// reservation words uses: each tid's row starts on its own cache line
/// ([`Line`]) and spans a power-of-two number of them, so neighbouring tids
/// never share a line (a row is stored to, and for the eager schemes fenced
/// on, by its owner on every read) and indexing is a shift. The eager
/// schemes (HP, HPAsym, HE) own theirs; [`PopShared`] leaks its two like the
/// struct that points at them.
#[derive(Clone, Copy)]
pub(crate) struct Rows<L = Box<[Line]>> {
    lines: L,
    /// log2 of a row's stride in words.
    row_shift: u32,
    slots: usize,
}

impl Rows {
    /// Zeroed rows of `slots` words for `nthreads` tids.
    pub(crate) fn new(nthreads: usize, slots: usize) -> Self {
        let row_shift = slots.max(LINE_WORDS).next_power_of_two().trailing_zeros();
        Rows {
            lines: zeroed((nthreads << row_shift) / LINE_WORDS),
            row_shift,
            slots,
        }
    }

    fn leak(self) -> Rows<&'static [Line]> {
        Rows {
            lines: Box::leak(self.lines),
            row_shift: self.row_shift,
            slots: self.slots,
        }
    }
}

impl<L: core::ops::Deref<Target = [Line]>> Rows<L> {
    /// Word `slot` of `tid`'s row.
    #[inline(always)]
    pub(crate) fn word(&self, tid: usize, slot: usize) -> &AtomicU64 {
        debug_assert!(slot < self.slots);
        let i = (tid << self.row_shift) + slot;
        &self.lines[i / LINE_WORDS].0[i % LINE_WORDS]
    }

    /// Every word of `tid`'s row, slot 0 first.
    #[inline(always)]
    pub(crate) fn row(&self, tid: usize) -> impl Iterator<Item = &AtomicU64> {
        (0..self.slots).map(move |slot| self.word(tid, slot))
    }
}

/// Shared reservation state for one publish-on-ping domain.
pub(crate) struct PopShared {
    nthreads: usize,
    /// `localReservations[tid][slot]` — owner-written (relaxed), read by the
    /// owner's own signal handler and by diagnostic code.
    local: Rows<&'static [Line]>,
    /// `sharedReservations[tid][slot]` — filled on publish, scanned by
    /// reclaimers.
    shared: Rows<&'static [Line]>,
    /// The rows the *owner* writes reservations to, resolved once: `local`
    /// under the signal modes (published by the handler's copy), `shared`
    /// under membarrier mode (made visible by the reclaimer's heavy
    /// barrier). `set_local`/`local_at`/`clear_local` go through it.
    owner: Rows<&'static [Line]>,
    /// `publishCounter[tid]`.
    counter: Box<[CachePadded<AtomicU64>]>,
    /// 32-bit futex key per thread, bumped alongside `counter` on every
    /// publish; waiters park on it (module docs, "Publish-wait semantics").
    publish_word: Box<[CachePadded<AtomicU32>]>,
    /// Waiters currently parked (or about to park) on `publish_word[t]`;
    /// publishers skip the wake syscall when zero.
    waiters: Box<[CachePadded<AtomicU32>]>,
    /// Per-thread operation activity word: odd while inside an operation.
    activity: Box<[CachePadded<AtomicU64>]>,
    /// Whether a domain tid currently participates.
    registered: Box<[AtomicBool]>,
    /// Domain tid → global thread id + 1 (0 = unbound).
    gtid_of: Box<[AtomicUsize]>,
    /// Registry claim generation captured at [`Self::register`]: together
    /// with the gtid it names that registration for liveness probes even
    /// after the registry slot is recycled.
    gtid_gen: Box<[AtomicU64]>,
    /// Whether the bound gtid was the calling thread's real registry slot
    /// at [`Self::register`] time ([`crate::base::registration_backed`]) —
    /// the license to read a later `Vacated` probe as death.
    gtid_backed: Box<[AtomicBool]>,
    /// Set by the watchdog (deadline expired) or a failed ping: the thread
    /// may hold reservations it never published, so reclaimers treat its
    /// *local* words as reserved too ([`Self::collect_reserved_into`] —
    /// correct-by-keep). Cleared by the thread's own next publish.
    suspect: Box<[AtomicBool]>,
    /// Set when a liveness probe confirms the registration's thread died
    /// without deregistering; consumed (CAS) by [`Self::take_dead`] on
    /// scheme reclaim paths, which feed the domain reaper.
    peer_dead: Box<[AtomicBool]>,
    stats: Arc<DomainStats>,
    /// Quiescent-thread ping elision. Off for users whose reservations live
    /// outside this struct (the HPAsym signal barrier), where every handler
    /// execution is load-bearing for memory ordering.
    filter_quiescent: bool,
    /// Spin budget before a publish wait parks
    /// ([`crate::config::SmrConfig::publish_spin`]).
    publish_spin: u32,
    /// Publish-wait watchdog: total wall-clock budget per
    /// `ping_all_and_wait` pass before unpublished peers are handled
    /// conservatively ([`crate::config::SmrConfig::publish_deadline_ns`];
    /// `0` = unbounded waits).
    publish_deadline_ns: u64,
    /// Membarrier publish mode (module docs): reservations live in the
    /// shared slots, `note_active` is fence-free, `publish_tid` skips the
    /// copy, and passes run one heavy barrier instead of the fan-out.
    /// Static for the domain's lifetime — the reader-side contract must
    /// not flap.
    membarrier: bool,
    /// Sticky mid-pass downgrade: a heavy barrier failed after init, so
    /// every subsequent pass runs the signal fan-out instead (readers are
    /// unaffected — see the module docs). Never set on non-membarrier
    /// domains.
    downgraded: AtomicBool,
    /// Membarrier passes completed, for pacing the dead-peer probe.
    mb_passes: CachePadded<AtomicU64>,
}

impl PopShared {
    /// Allocates and leaks the shared state (see module docs for why).
    ///
    /// The tail of the argument list mirrors the `SmrConfig` knobs it is
    /// always called with, in order — a tuning struct would just restate
    /// the config.
    pub(crate) fn leak(
        nthreads: usize,
        slots: usize,
        stats: Arc<DomainStats>,
        filter_quiescent: bool,
        publish_spin: u32,
        publish_deadline_ns: u64,
        membarrier: bool,
    ) -> &'static Self {
        let rows = || Rows::new(nthreads, slots).leak();
        let (local, shared) = (rows(), rows());
        Box::leak(Box::new(PopShared {
            nthreads,
            local,
            shared,
            owner: if membarrier { shared } else { local },
            counter: zeroed(nthreads),
            publish_word: zeroed(nthreads),
            waiters: zeroed(nthreads),
            activity: zeroed(nthreads),
            registered: zeroed(nthreads),
            gtid_of: zeroed(nthreads),
            gtid_gen: zeroed(nthreads),
            gtid_backed: zeroed(nthreads),
            suspect: zeroed(nthreads),
            peer_dead: zeroed(nthreads),
            stats,
            filter_quiescent,
            publish_spin,
            publish_deadline_ns,
            membarrier,
            downgraded: AtomicBool::new(false),
            mb_passes: CachePadded::new(AtomicU64::new(0)),
        }))
    }

    /// The instance a POP scheme builds for its domain: every knob from
    /// `base.cfg`, quiescent filtering on.
    pub(crate) fn for_domain(base: &DomainBase) -> &'static Self {
        Self::leak(
            base.cfg.max_threads,
            base.cfg.slots,
            Arc::clone(&base.stats),
            true,
            base.cfg.publish_spin,
            base.cfg.publish_deadline_ns,
            base.cfg.resolved_publish_mode() == crate::config::PublishMode::Membarrier,
        )
    }

    /// Reservation words per thread.
    #[inline(always)]
    fn slots(&self) -> usize {
        self.shared.slots
    }

    /// Hot-path local reservation (paper Alg. 1 line 11): a relaxed store,
    /// **no fence** — this is the entire point of publish-on-ping. Under
    /// membarrier mode the store targets the shared slot directly (the
    /// reclaimer's heavy barrier publishes it; no handler copy needed).
    #[inline(always)]
    pub(crate) fn set_local(&self, tid: usize, slot: usize, word: u64) {
        self.owner.word(tid, slot).store(word, Ordering::Relaxed);
    }

    /// Owner-side read of a local reservation (HazardEraPOP caches the last
    /// reserved era this way).
    #[inline(always)]
    pub(crate) fn local_at(&self, tid: usize, slot: usize) -> u64 {
        self.owner.word(tid, slot).load(Ordering::Relaxed)
    }

    /// Marks `tid` as inside an operation (activity word → odd).
    ///
    /// The trailing `SeqCst` **fence** is what makes the reclaimer's signal
    /// elision sound under weak memory (two-SC-fence rule, C++
    /// [atomics.fences]): pairing with the reclaimer's fence before its
    /// activity read, either the reclaimer observes this store (and pings),
    /// or this fence follows the reclaimer's in the total order — in which
    /// case every load of this operation observes the reclaimer's unlinks
    /// and cannot validate a pointer to its retirees. A bare `SeqCst`
    /// store is *not* enough: it is not a StoreLoad barrier against the
    /// operation's subsequent plain loads on non-TSO targets.
    ///
    /// This is the one ordered instruction POP pays per *operation*; reads
    /// stay fence-free.
    #[inline]
    pub(crate) fn note_active(&self, tid: usize) {
        self.note_active_unfenced(tid);
        // Membarrier mode skips the fence — that is its whole win — which
        // voids the elision argument; correspondingly, membarrier domains
        // never use the quiescent filter (module docs), not even on the
        // downgraded signal path.
        if !self.membarrier {
            fence(Ordering::SeqCst);
        }
    }

    /// The plain activity-word store of [`Self::note_active`], for a caller
    /// that issues the `SeqCst` fence itself (EpochPOP shares it with its
    /// epoch announcement). The fence must come before the operation's
    /// first load *and* its first `set_local`: a ping that still finds the
    /// word even publishes an empty row.
    #[inline]
    pub(crate) fn note_active_unfenced(&self, tid: usize) {
        let a = self.activity[tid].load(Ordering::Relaxed);
        self.activity[tid].store((a & !1).wrapping_add(1), Ordering::Relaxed);
    }

    /// Operation epilogue: marks `tid` quiescent (activity word → even).
    /// Release keeps the operation's row stores before it; missing
    /// visibility is conservative (the thread just gets pinged). The row
    /// itself is left alone — a ping that finds the word even publishes
    /// nothing (module docs) — except under membarrier mode, where no ping
    /// stands between the owner's words and the scan.
    #[inline]
    pub(crate) fn end_op(&self, tid: usize) {
        if self.membarrier {
            self.clear_local(tid);
        }
        let a = self.activity[tid].load(Ordering::Relaxed);
        self.activity[tid].store((a | 1).wrapping_add(1), Ordering::Release);
    }

    /// Paper's `clear()` (Alg. 1 line 23): zero the owner's row. Off the
    /// operation path in the signal modes (hence out of line); shared slots
    /// keep their last published value until the next ping.
    #[inline(never)]
    pub(crate) fn clear_local(&self, tid: usize) {
        for s in 0..self.slots() {
            self.owner.word(tid, s).store(0, Ordering::Relaxed);
        }
    }

    /// Joins the domain's ping set.
    pub(crate) fn register(&self, tid: usize, gtid: usize) {
        for s in 0..self.slots() {
            self.local.word(tid, s).store(0, Ordering::Relaxed);
            self.shared.word(tid, s).store(0, Ordering::Relaxed);
        }
        // Fresh occupants start quiescent; any parity left by a previous
        // occupant is normalized.
        let a = self.activity[tid].load(Ordering::Relaxed);
        self.activity[tid].store((a | 1).wrapping_add(1), Ordering::Relaxed);
        self.suspect[tid].store(false, Ordering::Relaxed);
        self.peer_dead[tid].store(false, Ordering::Relaxed);
        self.gtid_of[tid].store(gtid + 1, Ordering::Relaxed);
        // Generation of the registry slot backing this gtid, plus whether
        // it really is the calling thread's slot. For gtids not backed by
        // the registry (unit-test fabrications) `backed` stays false and
        // probes never read as death, so the reaper never engages on them.
        let generation = if gtid < pop_runtime::MAX_THREADS {
            Registry::global().generation_of(gtid)
        } else {
            0
        };
        self.gtid_gen[tid].store(generation, Ordering::Relaxed);
        self.gtid_backed[tid].store(crate::base::registration_backed(gtid), Ordering::Relaxed);
        // Release publishes the cleared slots before the thread is pingable.
        self.registered[tid].store(true, Ordering::Release);
    }

    /// Leaves the ping set, flushing empty reservations (a quiescent
    /// owner publishes nothing) so any reclaimer concurrently waiting on
    /// this thread observes either the counter increment or the
    /// deregistration.
    pub(crate) fn unregister(&self, tid: usize) {
        self.end_op(tid);
        self.publish_tid(tid);
        self.registered[tid].store(false, Ordering::Release);
        self.gtid_of[tid].store(0, Ordering::Relaxed);
    }

    /// The paper's `publishReservations` (Alg. 2 line 40): copy local →
    /// shared — or store an empty row when the owner is between operations
    /// (module docs) — one fence, bump the publish counter, wake parked
    /// waiters. Runs on `tid`'s own thread, so the activity word it reads
    /// cannot change under it. Async-signal-safe (atomics plus at most one
    /// `futex` syscall).
    pub(crate) fn publish_tid(&self, tid: usize) {
        // Fault site: a publish that straggles — the local→shared copy and
        // counter bump land late, stretching every waiting reclaimer.
        // `nanosleep` is async-signal-safe, so this is handler-legal.
        if faults::fire(FaultSite::PublishDelay) {
            self.stats
                .shard(tid)
                .faults_injected
                .fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(Duration::from_micros(100));
        }
        // Membarrier mode: the owner already writes the shared slots, and
        // the unused local words are all zero — copying them over would
        // ERASE live reservations (the handler may fire on these threads
        // via another domain's ping or a hard-rung re-ping). The publish
        // degenerates to fence + suspect-clear + counter bump + wake, which
        // is exactly what the signal fallback path needs from it.
        if !self.membarrier {
            let in_op = self.activity[tid].load(Ordering::Relaxed) & 1 != 0;
            for s in 0..self.slots() {
                let w = if in_op {
                    self.local.word(tid, s).load(Ordering::Relaxed)
                } else {
                    0
                };
                self.shared.word(tid, s).store(w, Ordering::Relaxed);
            }
        }
        self.announce_row(tid);
        self.stats
            .shard(tid)
            .publishes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Makes `tid`'s just-written shared row count as published: fence,
    /// end suspicion, bump the counter, wake parked waiters.
    fn announce_row(&self, tid: usize) {
        // The single fence that replaces one-fence-per-read of classic HP.
        fence(Ordering::SeqCst);
        // A completed publish is proof of life: the thread's shared words
        // are current again, so conservative suspect handling can end.
        self.suspect[tid].store(false, Ordering::Relaxed);
        self.counter[tid].fetch_add(1, Ordering::Release);
        // Dekker pairing with the waiter (module docs): the SeqCst word
        // bump precedes the waiter-count load, so a waiter that missed this
        // publish is observed here and woken.
        self.publish_word[tid].fetch_add(1, Ordering::SeqCst);
        if self.waiters[tid].load(Ordering::SeqCst) > 0 {
            futex::wake_all(&self.publish_word[tid]);
        }
    }

    /// Whether thread `t` may be skipped by `pingAllToPublish`: quiescent
    /// (activity word even) with an empty published row. Its private words
    /// are not consulted — a quiescent thread's are dead. Must run after
    /// the caller's `SeqCst` fence (see module docs).
    fn is_provably_quiescent(&self, t: usize) -> bool {
        // Stale non-zero shared words would pin garbage forever without a
        // refreshing publish — always ping those threads.
        self.activity[t].load(Ordering::SeqCst) & 1 == 0
            && (0..self.slots()).all(|s| self.shared.word(t, s).load(Ordering::Acquire) == 0)
    }

    /// Executes one process-wide heavy barrier, accounting it on `me`'s
    /// shard — the **single** place `membarriers` is counted (the `HPAsym`
    /// baseline and the POP membarrier mode both come through here).
    /// Returns `false` when the barrier could not run (probe failed, call
    /// failed, or an injected fault); callers must then use the signal
    /// fan-out for this pass.
    pub(crate) fn heavy_membarrier(&self, me: usize) -> bool {
        if pop_runtime::membarrier::heavy() {
            self.stats
                .shard(me)
                .membarriers
                .fetch_add(1, Ordering::Relaxed);
            true
        } else {
            false
        }
    }

    /// The membarrier-mode replacement for the whole ping/wait sequence:
    /// one heavy barrier, no signals, no waits. Returns `false` on barrier
    /// failure **after stickily downgrading the domain** — the caller
    /// falls through to the signal fan-out.
    fn membarrier_pass(&self, me: usize) -> bool {
        // Order our own prior unlinks before the barrier (the barrier
        // syscall is itself a full barrier on this CPU, but the fence
        // keeps the argument local and costs nothing next to the IPI).
        fence(Ordering::SeqCst);
        if !self.heavy_membarrier(me) {
            // Mid-pass failure (seccomp landed after init, or an injected
            // MembarrierFail): never try again — a mode that flaps would
            // make every pass pay a failing syscall — and run this pass
            // through the fan-out below.
            self.downgraded.store(true, Ordering::Release);
            return false;
        }
        let peers = (0..self.nthreads)
            .filter(|&t| t != me && self.registered[t].load(Ordering::Acquire))
            .count() as u64;
        let shard = self.stats.shard(me);
        shard.membarrier_passes.fetch_add(1, Ordering::Relaxed);
        shard.signals_avoided.fetch_add(peers, Ordering::Relaxed);
        // Dead-peer probe (module docs): no waits ⇒ no watchdog ⇒ probe
        // registrations on a period instead. Runs on the first pass, then
        // every MEMBARRIER_DEAD_PROBE_EVERY-th.
        let n = self.mb_passes.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(MEMBARRIER_DEAD_PROBE_EVERY) {
            for t in 0..self.nthreads {
                if t != me && self.registered[t].load(Ordering::Acquire) {
                    self.note_dead_if_confirmed(t);
                }
            }
        }
        true
    }

    /// Reclaimer-side sequence: self-publish, `collectPublishedCounters`,
    /// `pingAllToPublish`, `waitForAllPublished` (Alg. 1 lines 19–21).
    ///
    /// `collected` is the caller's reusable scratch buffer; steady-state
    /// calls perform no heap allocation.
    ///
    /// Under membarrier mode the whole sequence collapses to one heavy
    /// barrier ([`Self::membarrier_pass`]); `collected` is left empty. A
    /// barrier failure downgrades stickily and falls through to the signal
    /// fan-out below, whose handshake works unchanged on a
    /// membarrier-configured domain (degenerate publishes — see
    /// [`Self::publish_tid`]).
    pub(crate) fn ping_all_and_wait(&self, me: usize, collected: &mut Vec<u64>) {
        if self.membarrier && !self.downgraded.load(Ordering::Acquire) {
            collected.clear();
            if self.membarrier_pass(me) {
                return;
            }
        }
        // The reclaimer publishes its own reservations directly — it may
        // itself hold protected pointers (e.g. a traversal retiring nodes
        // mid-walk) that the scan must honor.
        self.publish_tid(me);

        collected.clear();
        collected.resize(self.nthreads, SKIP);
        for (t, c) in collected.iter_mut().enumerate() {
            if t != me && self.registered[t].load(Ordering::Acquire) {
                *c = self.counter[t].load(Ordering::Acquire);
            }
        }
        fence(Ordering::SeqCst);
        // Membarrier-configured domains never elide pings: their
        // `note_active` is fence-free, which voids the two-SC-fence
        // elision proof, so the (downgrade-only) signal path here must
        // ping every registered peer.
        let filter = self.filter_quiescent && !self.membarrier;
        let mut pings = 0u64;
        let mut failed = 0u64;
        let mut skipped = 0u64;
        for (t, c) in collected.iter_mut().enumerate() {
            if *c == SKIP {
                continue;
            }
            if filter && self.is_provably_quiescent(t) {
                // No signal, no wait: the thread holds nothing and cannot
                // reach this pass's retirees (module docs).
                *c = SKIP;
                skipped += 1;
                continue;
            }
            if let Some(gtid) = self.gtid(t) {
                match ping_gtid(gtid) {
                    PingOutcome::Sent => pings += 1,
                    // Deregistered between collection and the ping: the
                    // departing flush (or a proxy publish) satisfies the
                    // wait below, so keep waiting on the counter.
                    PingOutcome::Inactive => {}
                    PingOutcome::Dead => {
                        // The OS says the thread is gone: never wait for
                        // it. Its last words stay honored conservatively
                        // (suspect ⇒ local ∪ shared), and it is queued
                        // for the schemes' reaper.
                        failed += 1;
                        self.suspect[t].store(true, Ordering::Release);
                        self.note_dead_if_confirmed(t);
                        *c = SKIP;
                    }
                    PingOutcome::Failed(_) => {
                        // Send failed outright (never expected): skip the
                        // wait — the signal will not arrive — but keep
                        // the thread's reservations conservatively.
                        failed += 1;
                        self.suspect[t].store(true, Ordering::Release);
                        *c = SKIP;
                    }
                }
            }
        }
        let shard = self.stats.shard(me);
        shard.pings_sent.fetch_add(pings, Ordering::Relaxed);
        shard.pings_failed.fetch_add(failed, Ordering::Relaxed);
        shard.pings_skipped.fetch_add(skipped, Ordering::Relaxed);
        // Publish-wait watchdog: one wall-clock budget for the *whole
        // pass*, armed lazily the first time any wait outlives its spin
        // budget — the common pass never reads the clock.
        let mut pass_deadline: Option<Instant> = None;
        let mut timeouts = 0u64;
        for (t, &observed) in collected.iter().enumerate() {
            if observed == SKIP {
                continue;
            }
            let mut spins = 0u32;
            loop {
                // Acquire pairs with the handler's Release increment,
                // making the published reservations visible to the scan.
                if self.counter[t].load(Ordering::Acquire) > observed {
                    break;
                }
                // A thread that deregistered flushed empty reservations on
                // the way out; do not wait for it.
                if !self.registered[t].load(Ordering::Acquire) {
                    break;
                }
                // Bounded spin, then park: the pinged thread may be
                // descheduled on an oversubscribed host, and its handler
                // cannot run until it gets a CPU.
                spins = spins.saturating_add(1);
                if spins <= self.publish_spin {
                    core::hint::spin_loop();
                    continue;
                }
                if self.publish_deadline_ns > 0 {
                    let deadline = *pass_deadline.get_or_insert_with(|| {
                        Instant::now() + Duration::from_nanos(self.publish_deadline_ns)
                    });
                    if Instant::now() >= deadline {
                        // Deadline expired with this peer unpublished:
                        // abandon the wait. Correctness is preserved by
                        // keeping, not by waiting — the suspect flag makes
                        // the scan honor the peer's unpublished local
                        // words too — and a confirmed-dead peer is queued
                        // for reaping.
                        self.suspect[t].store(true, Ordering::Release);
                        timeouts += 1;
                        self.note_dead_if_confirmed(t);
                        break;
                    }
                }
                // Announce, re-check, park (module docs: the SeqCst
                // announce/load pair with the publisher's bump/load, so a
                // publish between our re-check and the FUTEX_WAIT either
                // changes the word — EAGAIN — or wakes us).
                self.waiters[t].fetch_add(1, Ordering::SeqCst);
                let w = self.publish_word[t].load(Ordering::SeqCst);
                if self.counter[t].load(Ordering::Acquire) <= observed
                    && self.registered[t].load(Ordering::Acquire)
                {
                    // Watchdog expiry is decided by wall clock above, never
                    // by counting wait returns: a spurious wake (`Woken`
                    // without progress) re-checks and parks again without
                    // charging a timeout slice, and a lost wake costs at
                    // most one `TimedOut` interval before the predicate
                    // re-check.
                    let _ = futex::wait_timeout(&self.publish_word[t], w, PUBLISH_WAIT_TIMEOUT_NS);
                }
                self.waiters[t].fetch_sub(1, Ordering::SeqCst);
            }
        }
        if timeouts > 0 {
            shard
                .publish_wait_timeouts
                .fetch_add(timeouts, Ordering::Relaxed);
        }
    }

    /// Probes the registry registration behind domain tid `t`; a confirmed
    /// death flags the tid for [`Self::take_dead`] consumers. Ambiguity
    /// (alive, vacated, fabricated gtid) flags nothing — reaping is an
    /// optimization, keeping is the correctness story.
    fn note_dead_if_confirmed(&self, t: usize) {
        if let Some((gtid, generation)) = self.registration_of(t) {
            let backed = self.gtid_backed[t].load(Ordering::Relaxed);
            if crate::base::registration_confirmed_dead(gtid, generation, backed) {
                self.peer_dead[t].store(true, Ordering::Release);
            }
        }
    }

    /// Scans `sharedReservations` of every registered thread (Alg. 2 lines
    /// 28–31) into `out` as a sorted, deduplicated set of non-zero words.
    /// Allocation-free once `out` has grown to its working capacity.
    pub(crate) fn collect_reserved_into(&self, out: &mut Vec<u64>) {
        self.collect_reserved_into_filtered(out, |_| true);
    }

    /// Allocating convenience wrapper around [`Self::collect_reserved_into`]
    /// (tests and diagnostics only — reclamation passes use the scratch
    /// variant).
    pub(crate) fn collect_reserved(&self) -> Vec<u64> {
        let mut v = Vec::with_capacity(self.nthreads * self.slots());
        self.collect_reserved_into(&mut v);
        v
    }

    /// The scan restricted to threads `include` accepts — with a real
    /// filter, the emergency-rung "active set" scan that leaves a
    /// known-stalled blocker's reservations out. Excluded threads keep the
    /// same suspect-widening semantics when included elsewhere; callers
    /// must pair this with the full union scan for the actual free
    /// decision.
    pub(crate) fn collect_reserved_into_filtered(
        &self,
        out: &mut Vec<u64>,
        mut include: impl FnMut(usize) -> bool,
    ) {
        out.clear();
        for t in 0..self.nthreads {
            if !self.registered[t].load(Ordering::Acquire) || !include(t) {
                continue;
            }
            // A suspect thread (watchdog expiry / failed ping) may hold
            // reservations it never published: honor its *local* words too.
            // Correct-by-keep — the worst case is garbage surviving one
            // extra pass; racing torn reads are impossible (words are
            // single atomics) and stale reads only widen the keep set.
            let suspect = self.suspect[t].load(Ordering::Acquire);
            for s in 0..self.slots() {
                let w = self.shared.word(t, s).load(Ordering::Acquire);
                if w != 0 {
                    out.push(w);
                }
                if suspect {
                    let l = self.local.word(t, s).load(Ordering::Acquire);
                    if l != 0 {
                        out.push(l);
                    }
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// One-word summary of thread `t`'s published reservations for the
    /// stall tracker: the minimum non-zero shared word (`0` if every slot
    /// is empty). A stalled reader re-publishing the *same* pinned era or
    /// pointer keeps the signature constant; any progress moves it.
    pub(crate) fn shared_word_signature(&self, t: usize) -> u64 {
        let mut sig = 0u64;
        for s in 0..self.slots() {
            let w = self.shared.word(t, s).load(Ordering::Acquire);
            if w != 0 && (sig == 0 || w < sig) {
                sig = w;
            }
        }
        sig
    }

    /// Whether thread `t` still publishes reservation word `w` in any
    /// shared slot — the quarantine release predicate for POP schemes (a
    /// parked block stays parked only while its blocker's pinning word is
    /// still visible).
    pub(crate) fn holds_shared_word(&self, t: usize, w: u64) -> bool {
        (0..self.slots()).any(|s| self.shared.word(t, s).load(Ordering::Acquire) == w)
    }

    /// Hard-rung targeted re-ping: signals every *suspect* registered peer
    /// (skipping `me`) once more, without waiting for publication. The
    /// suspects are exactly the threads whose reservations the scan is
    /// already honoring conservatively — a successful re-ping lets the
    /// next pass shrink that keep set. Returns the number of pings sent.
    pub(crate) fn reping_suspects(&self, me: usize) -> u64 {
        let mut pings = 0u64;
        let mut failed = 0u64;
        for t in 0..self.nthreads {
            if t == me
                || !self.registered[t].load(Ordering::Acquire)
                || !self.suspect[t].load(Ordering::Acquire)
            {
                continue;
            }
            if let Some(gtid) = self.gtid(t) {
                match ping_gtid(gtid) {
                    PingOutcome::Sent => pings += 1,
                    PingOutcome::Inactive => {}
                    PingOutcome::Dead => {
                        failed += 1;
                        self.note_dead_if_confirmed(t);
                    }
                    PingOutcome::Failed(_) => failed += 1,
                }
            }
        }
        if pings > 0 || failed > 0 {
            let shard = self.stats.shard(me);
            shard.pings_sent.fetch_add(pings, Ordering::Relaxed);
            shard.pings_failed.fetch_add(failed, Ordering::Relaxed);
        }
        pings
    }

    fn gtid(&self, tid: usize) -> Option<usize> {
        match self.gtid_of[tid].load(Ordering::Acquire) {
            0 => None,
            g => Some(g - 1),
        }
    }

    /// Takes one domain tid flagged as confirmed-dead (CAS-consumed, so
    /// each flag feeds exactly one reaper), or `None`.
    pub(crate) fn take_dead(&self) -> Option<usize> {
        (0..self.nthreads).find(|&t| {
            self.peer_dead[t].load(Ordering::Relaxed)
                && self.peer_dead[t]
                    .compare_exchange(true, false, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
        })
    }

    /// The `(gtid, registry generation)` pair naming domain tid `t`'s
    /// registration, for registry confirmation before a reap.
    pub(crate) fn registration_of(&self, t: usize) -> Option<(usize, u64)> {
        self.gtid(t)
            .map(|g| (g, self.gtid_gen[t].load(Ordering::Relaxed)))
    }

    /// Removes a **confirmed-dead** participant from the ping set on its
    /// behalf: zeroes its reservations, bumps its publish counter, wakes
    /// any parked waiter, and unbinds it.
    ///
    /// Caller contract: the thread behind `tid` is dead (its registry
    /// registration was reaped), so nothing races the owner-side stores
    /// below; a dead thread's reservations protect nothing because it can
    /// no longer dereference.
    pub(crate) fn force_unregister(&self, tid: usize) {
        for s in 0..self.slots() {
            self.local.word(tid, s).store(0, Ordering::Relaxed);
            self.shared.word(tid, s).store(0, Ordering::Relaxed);
        }
        // Waiters parked on the dead thread's publish word must observe
        // this and re-check.
        self.announce_row(tid);
        self.registered[tid].store(false, Ordering::Release);
        self.gtid_of[tid].store(0, Ordering::Relaxed);
        self.gtid_backed[tid].store(false, Ordering::Relaxed);
    }

    /// Published counter value (test observability).
    #[cfg(test)]
    pub(crate) fn counter_of(&self, tid: usize) -> u64 {
        self.counter[tid].load(Ordering::Acquire)
    }

    /// Reaps at most one participant whose kernel thread was confirmed
    /// dead (flagged by [`Self::note_dead_if_confirmed`] from the watchdog
    /// or a failed ping): erases it from the ping set, parks its pending
    /// retires as orphans, and frees its domain tid — recovering the slot,
    /// the memory, and (for epoch-hybrid schemes) the epoch min-scan,
    /// which gates on `DomainBase::is_registered`.
    ///
    /// `retire_of` hands over the dead slot's retire list. The caller
    /// guarantees only that `reaper_tid` is its own registered tid;
    /// exclusivity over the *dead* slot's single-owner state comes from
    /// winning the per-slot reap CAS and re-confirming the death
    /// ([`crate::base::reap_registration`]) for that `(gtid, generation)`
    /// — a loser simply abandons (correct-by-keep). `force_unregister`
    /// runs *before* `reap_participant`: the latter ends by releasing the
    /// tid for reuse, and a new claimant's registration must not race our
    /// teardown.
    pub(crate) fn reap_one_dead<'a>(
        &self,
        base: &DomainBase,
        reaper_tid: usize,
        retire_of: impl FnOnce(usize) -> &'a mut RetireList,
    ) -> Option<usize> {
        let t = self.take_dead()?;
        if t == reaper_tid || !base.try_begin_reap(t) {
            return None;
        }
        let confirmed = match self.registration_of(t) {
            Some((gtid, generation)) => {
                let backed = self.gtid_backed[t].load(Ordering::Relaxed);
                crate::base::reap_registration(gtid, generation, backed)
            }
            None => false,
        };
        let reaped = if confirmed {
            self.force_unregister(t);
            base.reap_participant(reaper_tid, t, retire_of(t));
            Some(t)
        } else {
            None
        };
        base.end_reap(t);
        reaped
    }
}

impl Publisher for PopShared {
    /// Signal-handler entry: publish for whichever domain tid the pinged
    /// thread holds. Bounded loop over domain tids; atomics and one fence
    /// only — async-signal-safe (the registry is initialized long before
    /// any thread is pingable, so `Registry::global()` is a plain load).
    ///
    /// Registry slots recycle, so this handler — running on the slot's
    /// *current* owner — may find a dead thread's domain tid still bound
    /// to the same gtid. Publishing for the corpse would bump its counter:
    /// forged proof of life that satisfies every publish wait and keeps
    /// the watchdog (and thus the reaper) from ever engaging. The claim
    /// generation captured at bind time disambiguates — a registry-backed
    /// binding is published only for the current claim of its slot.
    /// (Unbacked bindings — unit-test fabrications — are exempt: their
    /// captured generation tracks an unrelated slot and may drift.)
    fn publish(&self, gtid: usize) {
        let current = Registry::global().generation_of(gtid);
        for t in 0..self.nthreads {
            if self.registered[t].load(Ordering::Acquire)
                && self.gtid_of[t].load(Ordering::Acquire) == gtid + 1
            {
                let stale = self.gtid_backed[t].load(Ordering::Relaxed)
                    && self.gtid_gen[t].load(Ordering::Relaxed) != current;
                if !stale {
                    self.publish_tid(t);
                }
            }
        }
    }
}

/// The clear-on-ping rule driven through a whole scheme; shared by the
/// three POP schemes' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::config::{PublishMode, SmrConfig};
    use crate::header::{HasHeader, Header};
    use crate::smr::{alloc_node, retire_node, Smr};
    use core::sync::atomic::AtomicPtr;
    use std::sync::mpsc::channel;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    fn node<S: Smr>(smr: &S, v: u64) -> *mut N {
        let hdr = Header::new(smr.current_era(), core::mem::size_of::<N>());
        alloc_node(smr, 0, N { hdr, v })
    }

    /// Retires `hot` (if any) plus eight filler nodes from tid 0, then
    /// runs a forced pass.
    fn retire_and_flush<S: Smr>(smr: &S, hot: Option<*mut N>) {
        for p in hot.into_iter().chain((0..8).map(|i| node(smr, i))) {
            unsafe { retire_node(smr, 0, p) };
        }
        smr.flush(0);
    }

    /// A reader (tid 1) protects a node and is pinged **before** `end_op`:
    /// the node survives. It then calls `end_op`, stays registered, and is
    /// pinged again (its stale shared row forbids elision): it publishes
    /// an all-zero row and that same pass frees the node — an idle thread
    /// pins nothing. `pop_of` hands out the scheme's (private) engine.
    ///
    /// The reclaimer (tid 0) sits inside one operation throughout, so
    /// EpochPOP's epoch passes cannot free the node behind the POP pass's
    /// back and every flush escalates to a ping.
    pub(crate) fn pinged_mid_op_keeps_node_then_idle_ping_publishes_nothing<S: Smr>(
        pop_of: impl FnOnce(&S) -> &'static PopShared,
    ) {
        // Signal path pinned: the assertions count pings.
        let smr = &S::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(4)
                .with_publish_mode(PublishMode::Futex),
        );
        let pop = pop_of(smr);
        let reg0 = smr.register(0);
        smr.begin_op(0);
        let hot = node(&**smr, 7);
        let src = Arc::new(AtomicPtr::new(hot));
        let (to_main, from_reader) = channel();
        let (to_reader, from_main) = channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(smr);
            let src = Arc::clone(&src);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                let p = smr.protect(1, 0, &src).unwrap();
                to_main.send(()).unwrap();
                // Spin, not block: the pings must land in a running thread
                // exactly as they do mid-traversal.
                while from_main.try_recv().is_err() {
                    std::hint::spin_loop();
                }
                assert_eq!(unsafe { (*p).v }, 7, "node alive under the ping");
                smr.end_op(1);
                to_main.send(()).unwrap();
                while from_main.try_recv().is_err() {
                    std::hint::spin_loop();
                }
                drop(reg1);
            }
        });
        from_reader.recv().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        retire_and_flush(&**smr, Some(hot));
        let mid = smr.stats().snapshot();
        assert!(mid.pings_sent >= 1, "mid-op reader must be pinged");
        assert!(mid.unreclaimed_nodes() >= 1, "its live word keeps the node");
        assert!(!pop.collect_reserved().is_empty(), "live row published");

        to_reader.send(()).unwrap();
        from_reader.recv().unwrap(); // reader is past end_op, still registered
        retire_and_flush(&**smr, None);
        let idle = smr.stats().snapshot();
        assert!(
            idle.pings_sent > mid.pings_sent,
            "a stale shared row is never elided"
        );
        assert!(pop.collect_reserved().is_empty(), "idle owner: empty row");
        assert_eq!(idle.unreclaimed_nodes(), 0, "freed by that same pass");

        to_reader.send(()).unwrap();
        reader.join().unwrap();
        smr.end_op(0);
        drop(reg0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DEFAULT_PUBLISH_DEADLINE_NS, DEFAULT_PUBLISH_SPIN};

    fn mk(n: usize, slots: usize) -> &'static PopShared {
        PopShared::leak(
            n,
            slots,
            Arc::new(DomainStats::new(n)),
            true,
            DEFAULT_PUBLISH_SPIN,
            DEFAULT_PUBLISH_DEADLINE_NS,
            false,
        )
    }

    /// A membarrier-mode instance (reservations in shared slots, fan-out
    /// replaced by one heavy barrier).
    fn mk_mb(n: usize, slots: usize) -> &'static PopShared {
        PopShared::leak(
            n,
            slots,
            Arc::new(DomainStats::new(n)),
            true,
            DEFAULT_PUBLISH_SPIN,
            DEFAULT_PUBLISH_DEADLINE_NS,
            true,
        )
    }

    #[test]
    fn local_then_publish_reaches_shared() {
        let p = mk(2, 4);
        p.register(0, 100);
        p.note_active(0);
        p.set_local(0, 1, 0xABCD00);
        assert!(p.collect_reserved().is_empty(), "local is private pre-ping");
        p.publish_tid(0);
        assert_eq!(p.collect_reserved(), vec![0xABCD00]);
    }

    #[test]
    fn clear_local_then_publish_empties_shared() {
        let p = mk(1, 2);
        p.register(0, 0);
        p.note_active(0);
        p.set_local(0, 0, 42);
        p.publish_tid(0);
        assert_eq!(p.collect_reserved(), vec![42]);
        p.clear_local(0);
        assert_eq!(
            p.collect_reserved(),
            vec![42],
            "shared keeps stale value until next publish (conservative)"
        );
        p.publish_tid(0);
        assert!(p.collect_reserved().is_empty());
    }

    #[test]
    fn quiescent_owner_publishes_an_empty_row() {
        // The clear is as lazy as the publish: end_op leaves the private
        // words in place, and it is the next ping that — finding the
        // owner between operations — publishes nothing.
        let p = mk(1, 2);
        p.register(0, 0);
        p.note_active(0);
        p.set_local(0, 0, 42);
        p.publish_tid(0);
        assert_eq!(p.collect_reserved(), vec![42], "pinged mid-op: live word");
        p.end_op(0);
        assert_eq!(p.local_at(0, 0), 42, "end_op stores nothing to the row");
        assert_eq!(p.collect_reserved(), vec![42], "stale until the next ping");
        assert!(!p.is_provably_quiescent(0), "stale shared word: must ping");
        p.publish_tid(0);
        assert!(p.collect_reserved().is_empty(), "pinged idle: empty row");
        assert!(p.is_provably_quiescent(0));
        // The next operation republishes whatever it has not overwritten
        // (widening only) alongside what it has.
        p.note_active(0);
        p.set_local(0, 1, 7);
        p.publish_tid(0);
        assert_eq!(p.collect_reserved(), vec![7, 42]);
    }

    /// Every tid's row in every one of `all` starts a cache line, is
    /// contiguous, and overlaps no other row's lines.
    fn assert_line_aligned_and_distinct<L: core::ops::Deref<Target = [Line]>>(
        all: &[&Rows<L>],
        n: usize,
        slots: usize,
    ) {
        let mut bases = Vec::new();
        for rows in all {
            for t in 0..n {
                let base = rows.word(t, 0) as *const AtomicU64 as usize;
                let last = rows.word(t, slots - 1) as *const AtomicU64 as usize;
                assert_eq!(base % 64, 0, "row {t} of {slots} slots");
                assert_eq!(last - base, (slots - 1) * 8, "row is contiguous");
                assert_eq!(rows.row(t).count(), slots);
                bases.push(base);
            }
        }
        bases.sort_unstable();
        let stride = slots.next_power_of_two().max(8) * 8;
        assert!(
            bases.windows(2).all(|w| w[1] - w[0] >= stride),
            "rows overlap: {bases:x?}"
        );
    }

    #[test]
    fn rows_are_line_aligned_and_distinct() {
        use crate::config::SmrConfig;
        use crate::schemes::{he::HazardEra, hp::HazardPtr, hp_asym::HazardPtrAsym};
        use crate::smr::Smr;
        for (n, slots) in [(4, 1), (4, 8), (3, 9), (2, 16)] {
            for p in [mk(n, slots), mk_mb(n, slots)] {
                assert_line_aligned_and_distinct(&[&p.local, &p.shared], n, slots);
                let owner = if p.membarrier { p.shared } else { p.local };
                assert!(
                    core::ptr::eq(p.owner.lines, owner.lines),
                    "owner resolved at leak"
                );
            }
            // The eager schemes' one array of rows is the same layout.
            let cfg = SmrConfig::for_tests(n).with_slots(slots);
            assert_line_aligned_and_distinct(&[&HazardPtr::new(cfg.clone()).shared], n, slots);
            assert_line_aligned_and_distinct(&[&HazardEra::new(cfg.clone()).shared], n, slots);
            assert_line_aligned_and_distinct(&[&HazardPtrAsym::new(cfg).shared], n, slots);
        }
    }

    #[test]
    fn collect_sorts_and_dedups_across_threads() {
        let p = mk(3, 2);
        for t in 0..3 {
            p.register(t, t);
            p.note_active(t);
        }
        p.set_local(0, 0, 30);
        p.set_local(1, 0, 10);
        p.set_local(1, 1, 30);
        p.set_local(2, 1, 20);
        for t in 0..3 {
            p.publish_tid(t);
        }
        assert_eq!(p.collect_reserved(), vec![10, 20, 30]);
    }

    #[test]
    fn collect_into_reuses_buffer_without_realloc() {
        let p = mk(2, 2);
        p.register(0, 0);
        p.register(1, 1);
        let mut buf = Vec::with_capacity(4);
        let ptr_before = buf.as_ptr();
        p.note_active(0);
        p.note_active(1);
        p.set_local(0, 0, 9);
        p.set_local(1, 0, 3);
        p.publish_tid(0);
        p.publish_tid(1);
        p.collect_reserved_into(&mut buf);
        assert_eq!(buf, vec![3, 9]);
        assert_eq!(buf.as_ptr(), ptr_before, "warm buffer must not realloc");
    }

    #[test]
    fn unregister_flushes_and_removes() {
        let p = mk(2, 2);
        p.register(0, 0);
        p.register(1, 1);
        p.note_active(1);
        p.set_local(1, 0, 7);
        p.publish_tid(1);
        assert_eq!(p.collect_reserved(), vec![7]);
        let c = p.counter_of(1);
        p.unregister(1);
        assert!(p.counter_of(1) > c, "unregister must bump the counter");
        assert!(p.collect_reserved().is_empty());
    }

    #[test]
    fn publisher_dispatch_maps_gtid_to_tid() {
        let p = mk(2, 1);
        p.register(0, 55);
        p.register(1, 66);
        p.note_active(0);
        p.note_active(1);
        p.set_local(0, 0, 111);
        p.set_local(1, 0, 222);
        Publisher::publish(p, 66);
        assert_eq!(
            p.collect_reserved(),
            vec![222],
            "only the pinged gtid's tid publishes"
        );
    }

    #[test]
    fn ping_all_without_peers_returns_immediately() {
        let p = mk(4, 2);
        p.register(2, 9);
        p.note_active(2);
        p.set_local(2, 0, 5);
        let mut scratch = Vec::new();
        p.ping_all_and_wait(2, &mut scratch); // peers unregistered: must not block
        assert_eq!(p.collect_reserved(), vec![5], "self-publish happened");
    }

    #[test]
    fn activity_word_tracks_op_parity() {
        let p = mk(1, 1);
        p.register(0, 0);
        assert!(p.is_provably_quiescent(0), "fresh registrant is quiescent");
        p.note_active(0);
        assert!(!p.is_provably_quiescent(0));
        p.end_op(0);
        assert!(p.is_provably_quiescent(0));
        // Unpaired end_op (tests do this) must keep the word even.
        p.end_op(0);
        assert!(p.is_provably_quiescent(0));
    }

    #[test]
    fn parked_waiter_wakes_on_cross_thread_publish() {
        // Zero spin budget: the waiter parks on the futex immediately; a
        // publish from another thread must wake it well before the wait
        // timeout accumulates into seconds.
        let p = PopShared::leak(
            2,
            1,
            Arc::new(DomainStats::new(2)),
            true,
            0,
            DEFAULT_PUBLISH_DEADLINE_NS,
            false,
        );
        p.register(0, 100);
        p.register(1, 101);
        // Peer 1 looks active with a reservation: not skippable, and the
        // (failing, fake-gtid) ping leaves the waiter blocked on the
        // publish counter.
        p.note_active(1);
        p.set_local(1, 0, 0xFEED);
        let stop = Arc::new(AtomicBool::new(false));
        let publisher = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                // First publish delayed past the (zero) spin budget so the
                // waiter parks; then keep publishing in case the first one
                // raced ahead of the waiter's counter collection.
                std::thread::sleep(std::time::Duration::from_millis(30));
                while !stop.load(Ordering::Acquire) {
                    p.publish_tid(1);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        });
        let mut scratch = Vec::new();
        let t0 = std::time::Instant::now();
        p.ping_all_and_wait(0, &mut scratch);
        stop.store(true, Ordering::Release);
        publisher.join().unwrap();
        assert!(
            t0.elapsed() < std::time::Duration::from_secs(5),
            "parked waiter must be woken by the publish"
        );
        assert_eq!(p.collect_reserved(), vec![0xFEED]);
    }

    #[test]
    fn watchdog_unwedges_wait_on_never_publishing_peer() {
        // Peer 1 looks active with a reservation but will NEVER publish
        // (fake gtid: the ping goes nowhere, and no helper publishes for
        // it). Pre-watchdog this wait was unbounded; now the pass must
        // complete within the deadline, keep the peer's unpublished local
        // word conservatively, and count the timeout.
        let p = PopShared::leak(
            2,
            1,
            Arc::new(DomainStats::new(2)),
            true,
            4,
            50_000_000, // 50 ms
            false,
        );
        p.register(0, 100);
        p.register(1, 101);
        p.note_active(1);
        p.set_local(1, 0, 0xDEAD_BEEF);
        let mut scratch = Vec::new();
        let t0 = std::time::Instant::now();
        p.ping_all_and_wait(0, &mut scratch);
        let elapsed = t0.elapsed();
        assert!(
            elapsed < std::time::Duration::from_secs(10),
            "watchdog must bound the wait (took {elapsed:?})"
        );
        assert_eq!(
            p.stats.snapshot().publish_wait_timeouts,
            1,
            "the abandoned wait is counted"
        );
        assert_eq!(
            p.collect_reserved(),
            vec![0xDEAD_BEEF],
            "the laggard's unpublished local reservation is honored"
        );
        // The fabricated gtid must never be mistaken for a dead thread.
        assert_eq!(p.take_dead(), None);
        // Once the peer finally publishes, suspicion lifts and its local
        // words stop being unioned in.
        p.clear_local(1);
        p.publish_tid(1);
        assert!(p.collect_reserved().is_empty());
    }

    #[test]
    fn watchdog_disabled_by_zero_deadline_waits_for_publish() {
        // Deadline 0 restores unbounded waits: the pass returns only
        // because the helper publishes, and no timeout is counted.
        let p = PopShared::leak(2, 1, Arc::new(DomainStats::new(2)), true, 4, 0, false);
        p.register(0, 100);
        p.register(1, 101);
        p.note_active(1);
        p.set_local(1, 0, 0xF00D);
        let stop = Arc::new(AtomicBool::new(false));
        let helper = std::thread::spawn({
            let stop = Arc::clone(&stop);
            move || {
                while !stop.load(Ordering::Acquire) {
                    p.publish_tid(1);
                    std::thread::sleep(std::time::Duration::from_millis(5));
                }
            }
        });
        let mut scratch = Vec::new();
        p.ping_all_and_wait(0, &mut scratch);
        stop.store(true, Ordering::Release);
        helper.join().unwrap();
        assert_eq!(p.stats.snapshot().publish_wait_timeouts, 0);
    }

    #[test]
    fn dead_peer_is_flagged_reaped_and_forcibly_unregistered() {
        // A real registered thread dies without deregistering (forgotten
        // guard). The watchdog pass must abandon the wait, confirm death
        // through the registry, and take_dead must hand the tid to a
        // reaper exactly once; force_unregister then drops it from the
        // ping set and empties its reservations.
        let p = PopShared::leak(
            2,
            1,
            Arc::new(DomainStats::new(2)),
            true,
            4,
            50_000_000, // 50 ms
            false,
        );
        let (tx, rx) = std::sync::mpsc::channel();
        let victim = std::thread::spawn(move || {
            let reg = Registry::global().register_current();
            tx.send(reg.gtid()).unwrap();
            // Die without deregistering.
            std::mem::forget(reg);
        });
        let gtid = rx.recv().unwrap();
        // Capture the generation while provably claimed, then wait for the
        // OS to report the thread gone before the watchdog pass.
        let generation = Registry::global().generation_of(gtid);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while Registry::global().probe(gtid, generation) != pop_runtime::Liveness::Dead {
            assert!(std::time::Instant::now() < deadline, "victim never died");
            std::thread::yield_now();
        }
        p.register(0, 100);
        p.register(1, gtid);
        p.note_active(1);
        p.set_local(1, 0, 0xD1ED);
        let mut scratch = Vec::new();
        p.ping_all_and_wait(0, &mut scratch);
        let t = p.take_dead().expect("dead peer must be flagged");
        assert_eq!(t, 1);
        assert_eq!(p.take_dead(), None, "flag is consumed exactly once");
        let (g, gen2) = p.registration_of(1).unwrap();
        assert_eq!(g, gtid);
        assert_eq!(gen2, generation);
        assert!(Registry::global().reap(gtid, generation));
        p.force_unregister(1);
        assert!(p.collect_reserved().is_empty(), "dead words dropped");
        victim.join().unwrap();
    }

    #[test]
    fn quiescent_thread_with_stale_private_words_is_elided() {
        // Stale private words of a quiescent thread are dead: with an
        // all-zero shared row it is skipped by the slot scan on every pass
        // and never signalled.
        let p = mk(2, 2);
        p.register(0, 100);
        p.register(1, 101);
        p.note_active(1);
        p.set_local(1, 0, 0xFEED);
        p.end_op(1);
        assert_eq!(p.local_at(1, 0), 0xFEED);
        let mut scratch = Vec::new();
        for _ in 0..10 {
            p.ping_all_and_wait(0, &mut scratch);
        }
        let s = p.stats.snapshot();
        assert_eq!(s.pings_skipped, 10);
        assert_eq!((s.pings_sent, s.pings_failed), (0, 0), "never signalled");
        assert!(
            p.collect_reserved().is_empty(),
            "an idle thread pins nothing"
        );
    }

    // -----------------------------------------------------------------
    // Membarrier publish mode (module docs, "Membarrier publish mode").
    // -----------------------------------------------------------------

    #[test]
    fn membarrier_mode_owner_stores_land_in_shared_slots() {
        let p = mk_mb(1, 2);
        p.register(0, 0);
        p.set_local(0, 1, 0xAB);
        assert_eq!(
            p.collect_reserved(),
            vec![0xAB],
            "no publish needed — owner stores are already shared"
        );
        assert_eq!(
            p.local_at(0, 1),
            0xAB,
            "owner readback routes to the same slots"
        );
        p.clear_local(0);
        assert!(p.collect_reserved().is_empty());
    }

    #[test]
    fn membarrier_pass_elides_fan_out_and_accounts_whole_pass() {
        if !pop_runtime::membarrier::is_available() {
            return; // fallback path covered by the downgrade test below
        }
        let p = mk_mb(3, 1);
        for t in 0..3 {
            p.register(t, 100 + t);
        }
        p.set_local(1, 0, 0x111);
        p.set_local(2, 0, 0x222);
        let mut scratch = vec![1, 2, 3];
        p.ping_all_and_wait(0, &mut scratch);
        assert!(
            scratch.is_empty(),
            "no counters collected — nothing was waited on"
        );
        let s = p.stats.snapshot();
        assert_eq!(s.membarrier_passes, 1);
        assert_eq!(
            s.membarriers, 1,
            "one heavy barrier, counted at the single site"
        );
        assert_eq!(
            s.signals_avoided, 2,
            "one avoided signal per registered peer"
        );
        assert_eq!(s.pings_sent, 0);
        assert_eq!(
            s.pings_skipped, 0,
            "whole-fan-out elision is not accounted as per-peer skips"
        );
        assert_eq!(
            p.collect_reserved(),
            vec![0x111, 0x222],
            "peer reservations visible with zero publishes"
        );
    }

    #[test]
    fn stray_handler_publish_does_not_clobber_membarrier_reservations() {
        let p = mk_mb(2, 1);
        p.register(0, 55);
        p.register(1, 66);
        p.set_local(1, 0, 0xBEEF); // lands directly in the shared slot
        assert_eq!(p.collect_reserved(), vec![0xBEEF]);
        // A stray ping (another domain's fan-out through the process-global
        // handler, or a hard-rung re-ping after a downgrade) runs this
        // domain's publish: the degenerate publish must NOT copy the
        // all-zero local words over the live shared reservation.
        Publisher::publish(p, 66);
        assert_eq!(
            p.collect_reserved(),
            vec![0xBEEF],
            "publish must not erase a live membarrier-mode reservation"
        );
        assert!(
            p.counter_of(1) >= 1,
            "the publish still bumps the counter (fallback handshake intact)"
        );
    }

    #[test]
    fn membarrier_mode_never_sets_suspects_so_reping_is_noop() {
        if !pop_runtime::membarrier::is_available() {
            return;
        }
        let p = mk_mb(2, 1);
        p.register(0, 100);
        p.register(1, 101);
        let mut scratch = Vec::new();
        p.ping_all_and_wait(0, &mut scratch);
        assert_eq!(
            p.reping_suspects(0),
            0,
            "pure membarrier mode never suspects anyone — the hard rung's re-ping is a no-op"
        );
    }

    #[test]
    fn membarrier_pass_probes_dead_peer_without_waits() {
        if !pop_runtime::membarrier::is_available() {
            return;
        }
        // Same corpse setup as the watchdog test above, but detection must
        // ride the periodic registry probe (first pass runs it): the fast
        // path never pings and never waits, so the watchdog cannot fire.
        let p = mk_mb(2, 1);
        let (tx, rx) = std::sync::mpsc::channel();
        let victim = std::thread::spawn(move || {
            let reg = Registry::global().register_current();
            tx.send(reg.gtid()).unwrap();
            std::mem::forget(reg);
        });
        let gtid = rx.recv().unwrap();
        let generation = Registry::global().generation_of(gtid);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while Registry::global().probe(gtid, generation) != pop_runtime::Liveness::Dead {
            assert!(std::time::Instant::now() < deadline, "victim never died");
            std::thread::yield_now();
        }
        p.register(0, 100);
        p.register(1, gtid);
        p.set_local(1, 0, 0xD1ED);
        let mut scratch = Vec::new();
        p.ping_all_and_wait(0, &mut scratch);
        let s = p.stats.snapshot();
        assert_eq!(
            s.membarrier_passes, 1,
            "the pass must have taken the fast path"
        );
        assert_eq!(
            s.publish_wait_timeouts, 0,
            "no waits, so no watchdog expiries"
        );
        let t = p
            .take_dead()
            .expect("the registry probe must flag the corpse");
        assert_eq!(t, 1);
        assert_eq!(
            p.collect_reserved(),
            vec![0xD1ED],
            "dead words stay honored until the reaper runs"
        );
        assert!(Registry::global().reap(gtid, generation));
        p.force_unregister(1);
        assert!(p.collect_reserved().is_empty());
        victim.join().unwrap();
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn membarrier_failure_downgrades_stickily_to_fan_out() {
        let _g = faults::test_lock();
        faults::install(faults::FaultPlan::default().with_rate(FaultSite::MembarrierFail, 1));
        let p = mk_mb(1, 1);
        p.register(0, 7);
        p.set_local(0, 0, 0xF00D);
        let mut scratch = Vec::new();
        p.ping_all_and_wait(0, &mut scratch);
        assert!(
            p.downgraded.load(Ordering::Acquire),
            "a failed heavy barrier must downgrade the domain"
        );
        let s1 = p.stats.snapshot();
        assert_eq!(s1.membarrier_passes, 0);
        assert_eq!(s1.signals_avoided, 0);
        assert!(
            s1.publishes >= 1,
            "the failing pass must fall through to the fan-out (self-publish ran)"
        );
        assert_eq!(
            p.collect_reserved(),
            vec![0xF00D],
            "reservations survive the downgrade — readers never change behavior"
        );
        faults::clear();
        // The barrier works again, but the downgrade is sticky.
        p.ping_all_and_wait(0, &mut scratch);
        assert_eq!(
            p.stats.snapshot().membarrier_passes,
            0,
            "downgrade must be sticky — no flapping back to membarrier"
        );
    }
}
