//! The publish-on-ping engine shared by HazardPtrPOP, HazardEraPOP,
//! EpochPOP and — in its membarrier mode — HPAsym.
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
//! slots hold stale non-zero words, and *suspects* (whose private words
//! every scan unions in), are always pinged: skipping them would let the
//! stale words pin garbage until the thread's next operation.
//!
//! ## The peer table: registration, dispatch, wait, reap
//!
//! [`Peers`] is the signal-participant layer, shared with NBR+
//! (`schemes::nbr`): the two engines differ only in what a ping asks for
//! (publish the row / restart the read phase) and in what ends the wait
//! (a publish-counter bump / NBR's phase-2 predicate). It holds each
//! tid's gtid binding, claim generation, registry-backed bit and dead
//! flag; dispatches a ping to the bound tids, skipping a stale
//! generation (async-signal-safe: atomics only); probes and reaps dead
//! participants; and runs the one publish wait.
//!
//! **The wait.** Spin with `spin_loop` and never park: a pinged peer
//! answers within a ping round trip (microseconds), and a reclaimer asleep
//! in the kernel would stretch every such answer to a wake-up latency, and
//! then to a scheduler quantum when its own peer waits on it in turn.
//! Every [`CLOCK_EVERY`] rounds (≈ 2 round trips) the wait reads the clock
//! and calls `std::thread::yield_now`, so a peer descheduled behind this
//! thread on an oversubscribed host gets the CPU and answers; with nothing
//! else runnable the yield returns at once. (Yielding only once a wait is
//! 1 ms old made `bench_smoke`'s pass against 4 yielding peers on 2 vCPUs
//! cost ≈ 1.1 ms, against 32 µs this way and 44 µs for a parking wait.)
//! The first clock read arms the pass's wall-clock deadline
//! ([`crate::config::SmrConfig::publish_deadline_ns`]), so an uncontended
//! pass never reads the clock, and the wait gives up at that deadline.
//! Nothing a peer does to end a wait wakes anybody: the handshake is the
//! counters and flags the wait's exit condition reads, so the answering
//! side (a signal handler, NBR+'s `end_op`) makes no syscall.
//!
//! **A stuck peer costs one deadline.** When a wait times out, the peer's
//! *snapshot* is recorded: the publish counter the pass collected (POP),
//! or its `(op_seq, restart_seq)` (NBR+). A later pass that finds the
//! same snapshot, with the exit condition still false, skips the wait
//! ([`Waited::Stuck`]): POP keeps the peer a suspect, so the scan unions
//! its private words, and NBR+ frees nothing, exactly as the expired
//! wait would have. It still probes the peer for the reaper. Any movement
//! of the snapshot clears the record, so the next wait is a full one.
//!
//! ## Membarrier publish mode
//!
//! Under [`crate::config::PublishMode::Membarrier`] the signal fan-out
//! disappears entirely: readers write reservations **directly to their
//! shared slots** with plain relaxed stores (`owner` routes there; the
//! private `local` array goes unused), and `ping_all_and_wait` becomes one
//! process-wide `membarrier(2)` heavy barrier — after which every peer's
//! prior stores are visible and the existing reservation scan reads them
//! with nothing to wait for. This mode *is* the Folly-style
//! asymmetric fencing of the `HPAsym` baseline: HPAsym is the hazard
//! engine's publisher that builds this struct with the mode always on
//! (`schemes::hazard`). There the owner's store *is* the publish — no ping
//! stands between a word and the scan — so this is the one mode whose
//! `end_op` still clears its row eagerly.
//!
//! Nothing reads the activity word in this mode: the ping filter is off and
//! [`PopShared::publish_tid`] skips the copy that consults it. So
//! `note_active` and `end_op` skip their activity stores (and
//! `note_active` its fence) — HPAsym's `begin_op` is store-free. EpochPOP's
//! `begin_op` still stores the word, for nothing, beside its epoch, and
//! keeps its fence, which the epoch announcement needs in every mode.
//!
//! Three consequences are load-bearing:
//!
//! * **Publish is degenerate.** The process-global signal handler still
//!   runs on these threads (another domain sharing the process may ping
//!   them).
//!   [`PopShared::publish_tid`] therefore *skips the local→shared copy*
//!   on membarrier-configured domains — the copy would overwrite live
//!   shared reservations with the unused (all-zero) local words — while
//!   keeping its fence, suspect-clear and counter bump, so the signal
//!   path's handshake semantics survive a downgrade.
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
//!   ([`Peers::note_dead_if_confirmed`]) — the schemes' existing
//!   `reap_one_dead` then recovers confirmed corpses. Garbage a dead
//!   peer pins is thus bounded by the probe period, not unbounded.
//!
//! A heavy barrier that *fails* (HPAsym on a host whose probe fails,
//! seccomp installed after init, or an injected
//! [`FaultSite::MembarrierFail`]) downgrades the domain
//! **stickily** to the signal fan-out: reservations keep living in the
//! shared slots (readers never change behavior), pings publish via the
//! degenerate handler, and the pass that observed the failure falls
//! through to the signal path it would otherwise have replaced.
//!
//! Instances are leaked (`&'static`) because the process-global signal
//! handler may dereference them at any time; see `pop-runtime` docs.

use core::sync::atomic::{fence, AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam_utils::CachePadded;
use pop_runtime::faults::{self, FaultSite};
use pop_runtime::signal::ping_gtid;
use pop_runtime::{Liveness, PingOutcome, Publisher, Registry};

use crate::base::{DomainBase, RetireList};
use crate::config::SmrConfig;
use crate::stats::DomainStats;

/// Spin rounds between two clock reads (and yields) of [`Peers::wait`]:
/// about 25 µs at the ≈ 25 ns one `spin_loop` took on the build host,
/// so a wait that a ping round trip (≈ 14 µs) ends mostly never reads the
/// clock or yields.
const CLOCK_EVERY: u32 = 1024;

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
pub(crate) fn zeroed<T: Default>(n: usize) -> Box<[T]> {
    (0..n).map(|_| T::default()).collect()
}

/// Per-thread reservation rows, the one layout every scheme with
/// reservation words uses: each tid's row starts on its own cache line
/// ([`Line`]) and spans a power-of-two number of them, so neighbouring tids
/// never share a line (a row is stored to, and for HP and HE fenced on, by
/// its owner on every read) and indexing is a shift. The hazard engine's
/// `Fence` publisher (HP, HE) owns one; [`PopShared`] leaks its two like
/// the struct that points at them.
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
    /// `tid`'s row: exactly `slots` words, slot 0 first, so a slot out of
    /// range panics in every build profile instead of landing in the
    /// padding no scan reads.
    #[inline(always)]
    pub(crate) fn row(&self, tid: usize) -> &[AtomicU64] {
        // Bounds-checks `tid`: the row's first line exists iff it does.
        let first = &self.lines[(tid << self.row_shift) / LINE_WORDS];
        // SAFETY: `Line` is `repr(align(64))` around exactly `LINE_WORDS`
        // words, so consecutive lines are consecutive words with no
        // padding. A row spans the `(1 << row_shift) / LINE_WORDS` whole
        // lines starting at `first` (`row_shift` ≥ log2 `LINE_WORDS`), all
        // inside `lines` because `first` is, and `slots ≤ 1 << row_shift`.
        unsafe { core::slice::from_raw_parts(first.0.as_ptr(), self.slots) }
    }

    /// `tid`'s non-zero words, Acquire-loaded, slot 0 first.
    fn words(&self, tid: usize) -> impl Iterator<Item = u64> + '_ {
        self.row(tid)
            .iter()
            .map(|cell| cell.load(Ordering::Acquire))
            .filter(|&w| w != 0)
    }

    /// Appends `tid`'s non-zero words to `out` (a reservation scan).
    pub(crate) fn push_words(&self, tid: usize, out: &mut Vec<u64>) {
        out.extend(self.words(tid));
    }

    /// Zeroes `tid`'s row with relaxed stores (the caller orders them).
    fn clear(&self, tid: usize) {
        for cell in self.row(tid) {
            cell.store(0, Ordering::Relaxed);
        }
    }

    /// Whether every word of `tid`'s row is zero.
    fn is_empty(&self, tid: usize) -> bool {
        self.words(tid).next().is_none()
    }
}

/// The signal-participant table of a signal-driven domain (module docs,
/// "The peer table"): who is registered under which thread, who is
/// confirmed dead, and which peers some pass timed out on.
pub(crate) struct Peers {
    /// Whether a domain tid currently participates.
    registered: Box<[AtomicBool]>,
    /// Domain tid → global thread id + 1 (0 = unbound).
    gtid_of: Box<[AtomicUsize]>,
    /// Registry claim generation captured at [`Self::bind`]: with the gtid
    /// it names that registration for liveness probes even after the
    /// registry slot is recycled.
    gtid_gen: Box<[AtomicU64]>,
    /// Whether the bound gtid was the calling thread's own registry slot
    /// at [`Self::bind`] time — not a gtid fabricated by a unit test. A
    /// backed registration disappears only through its thread's teardown
    /// (`Registration` drops the domain binding before the registry
    /// handle), so only for it does a later `Vacated` probe prove death.
    gtid_backed: Box<[AtomicBool]>,
    /// Set when a liveness probe confirms the registration's thread died
    /// without deregistering; consumed (CAS) by [`Self::take_dead`].
    dead: Box<[AtomicBool]>,
    /// The snapshot a wait on each peer last timed out on, and in word 2
    /// whether it stands (module docs, "A stuck peer costs one deadline").
    /// A hint shared by every reclaimer: a stale or torn record only skips
    /// a wait in a pass that then treats the peer as an expiry would.
    stuck: Box<[CachePadded<[AtomicU64; 3]>]>,
    /// Wall-clock budget of one pass's waits (`0` = unbounded).
    deadline_ns: u64,
}

impl Peers {
    pub(crate) fn new(cfg: &SmrConfig) -> Self {
        let n = cfg.max_threads;
        Peers {
            registered: zeroed(n),
            gtid_of: zeroed(n),
            gtid_gen: zeroed(n),
            gtid_backed: zeroed(n),
            dead: zeroed(n),
            stuck: zeroed(n),
            deadline_ns: cfg.publish_deadline_ns,
        }
    }

    /// The number of domain tids.
    pub(crate) fn len(&self) -> usize {
        self.registered.len()
    }

    pub(crate) fn is_registered(&self, t: usize) -> bool {
        self.registered[t].load(Ordering::Acquire)
    }

    /// Binds `t` to global thread `gtid` and makes it pingable. The caller
    /// clears its own handler-visible state first: the `registered` store
    /// (Release) comes last and publishes those clears.
    pub(crate) fn bind(&self, t: usize, gtid: usize) {
        self.dead[t].store(false, Ordering::Relaxed);
        self.stuck[t][2].store(0, Ordering::Relaxed);
        self.gtid_of[t].store(gtid + 1, Ordering::Relaxed);
        // A gtid outside the registry (a unit-test fabrication) is never
        // backed, so its probes never read as death.
        let (generation, backed) = if gtid < pop_runtime::MAX_THREADS {
            let registry = Registry::global();
            let backed = registry.find_current() == Some(gtid);
            (registry.generation_of(gtid), backed)
        } else {
            (0, false)
        };
        self.gtid_gen[t].store(generation, Ordering::Relaxed);
        self.gtid_backed[t].store(backed, Ordering::Relaxed);
        self.registered[t].store(true, Ordering::Release);
    }

    /// The registered tids other than `me`.
    pub(crate) fn others(&self, me: usize) -> impl Iterator<Item = usize> + '_ {
        (0..self.len()).filter(move |&t| t != me && self.is_registered(t))
    }

    /// `t`'s owner leaves the table.
    pub(crate) fn leave(&self, t: usize) {
        self.registered[t].store(false, Ordering::Release);
        self.gtid_of[t].store(0, Ordering::Relaxed);
    }

    /// Removes confirmed-dead `t` on its owner's behalf, after the caller
    /// erased its own handler-visible state; a reclaimer waiting on it
    /// sees it gone at its next check.
    pub(crate) fn evict(&self, t: usize) {
        self.registered[t].store(false, Ordering::Release);
        self.gtid_of[t].store(0, Ordering::Relaxed);
        self.gtid_backed[t].store(false, Ordering::Relaxed);
    }

    fn gtid(&self, t: usize) -> Option<usize> {
        match self.gtid_of[t].load(Ordering::Acquire) {
            0 => None,
            g => Some(g - 1),
        }
    }

    /// The `(gtid, registry generation)` pair naming `t`'s registration.
    pub(crate) fn registration_of(&self, t: usize) -> Option<(usize, u64)> {
        self.gtid(t)
            .map(|g| (g, self.gtid_gen[t].load(Ordering::Relaxed)))
    }

    /// Probes `t`'s registration; flags `t` for [`Self::take_dead`] only on
    /// a confirmed death of that same registration — a dead kernel tid, or
    /// a backed registration vacated by its thread's teardown. Ambiguity
    /// flags nothing: reaping is an optimization, keeping is the
    /// correctness story.
    pub(crate) fn note_dead_if_confirmed(&self, t: usize) {
        if self.registration_confirmed_dead(t) {
            self.dead[t].store(true, Ordering::Release);
        }
    }

    /// Whether the kernel reports `t`'s registered thread gone, or `t`'s
    /// backed registration vanished from the registry while its binding
    /// survived (the thread exited and its TLS teardown released the slot).
    fn registration_confirmed_dead(&self, t: usize) -> bool {
        self.registration_of(t).is_some_and(|(gtid, generation)| {
            gtid < pop_runtime::MAX_THREADS
                && match Registry::global().probe(gtid, generation) {
                    Liveness::Dead => true,
                    Liveness::Vacated => self.gtid_backed[t].load(Ordering::Relaxed),
                    Liveness::Alive => false,
                }
        })
    }

    /// Takes one tid flagged as confirmed-dead (CAS-consumed, so each flag
    /// feeds exactly one reaper), or `None`.
    pub(crate) fn take_dead(&self) -> Option<usize> {
        (0..self.len()).find(|&t| {
            self.dead[t].load(Ordering::Relaxed)
                && self.dead[t]
                    .compare_exchange(true, false, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
        })
    }

    /// Signals `t`'s thread. An unbound tid reads as `Inactive`; a `Dead`
    /// or failed send probes the registration for the reaper.
    pub(crate) fn ping(&self, t: usize) -> PingOutcome {
        let Some(gtid) = self.gtid(t) else {
            return PingOutcome::Inactive;
        };
        let outcome = ping_gtid(gtid);
        if matches!(outcome, PingOutcome::Dead | PingOutcome::Failed(_)) {
            self.note_dead_if_confirmed(t);
        }
        outcome
    }

    /// Signal-handler side: runs `on_ping` for every tid bound to `gtid`.
    /// Atomics only — async-signal-safe (the registry is initialized long
    /// before any thread is pingable, so `Registry::global()` is a plain
    /// load).
    ///
    /// Registry slots recycle, so the handler — running on the slot's
    /// *current* owner — may find a dead thread's tid still bound to the
    /// same gtid. Acting for the corpse would forge proof of life (a POP
    /// publish satisfies every wait and keeps the watchdog, and so the
    /// reaper, from engaging). A backed binding is therefore served only
    /// for the current claim of its slot; unbacked bindings (unit-test
    /// fabrications) track an unrelated slot and are exempt.
    pub(crate) fn dispatch(&self, gtid: usize, mut on_ping: impl FnMut(usize)) {
        let current = Registry::global().generation_of(gtid);
        for t in 0..self.len() {
            if self.is_registered(t) && self.gtid_of[t].load(Ordering::Acquire) == gtid + 1 {
                let stale = self.gtid_backed[t].load(Ordering::Relaxed)
                    && self.gtid_gen[t].load(Ordering::Relaxed) != current;
                if !stale {
                    on_ping(t);
                }
            }
        }
    }

    /// Reaps at most one participant whose thread was confirmed dead:
    /// `force_unregister(t)` erases it from the scheme's handler-visible
    /// state (ending with [`Self::evict`]), then its open fill bins are
    /// sealed into the retire pool and its domain tid freed — recovering the slot,
    /// the memory, and (for EpochPOP) the epoch min-scan, which gates on
    /// `DomainBase::is_registered`.
    ///
    /// The caller guarantees only that `reaper_tid` is its own registered
    /// tid. Exclusivity over the *dead* slot's single-owner state comes
    /// from winning the per-slot reap CAS and re-confirming the death for
    /// that `(gtid, generation)`: the registry releases a still-held slot
    /// whose kernel tid is gone, or a backed registration is already
    /// vacated. A loser simply abandons (correct-by-keep). The erase runs
    /// *before* `reap_participant`, which ends by releasing the tid: a new
    /// claimant's registration must not race the teardown.
    pub(crate) fn reap_one_dead<'a>(
        &self,
        base: &DomainBase,
        reaper_tid: usize,
        force_unregister: impl FnOnce(usize),
        retire_of: impl FnOnce(usize) -> &'a mut RetireList,
    ) -> Option<usize> {
        let t = self.take_dead()?;
        if t == reaper_tid || !base.try_begin_reap(t) {
            return None;
        }
        let registry = Registry::global();
        let confirmed = self.registration_of(t).is_some_and(|(gtid, generation)| {
            gtid < pop_runtime::MAX_THREADS
                && (registry.reap(gtid, generation)
                    || (self.gtid_backed[t].load(Ordering::Relaxed)
                        && registry.probe(gtid, generation) == Liveness::Vacated))
        });
        let reaped = confirmed.then(|| {
            force_unregister(t);
            base.reap_participant(reaper_tid, t, retire_of(t));
            t
        });
        base.end_reap(t);
        reaped
    }

    /// Waits until `t` has left the table or `done()` holds: spin, yield
    /// every [`CLOCK_EVERY`] rounds, give up at the pass deadline (module
    /// docs). `deadline` is
    /// the pass's, shared by all its waits and armed at the first clock
    /// read, so an uncontended pass never reads the clock. `snapshot` is
    /// the peer's progress as the caller collected it: if a wait already
    /// timed out on `t` at this same snapshot, the wait is skipped
    /// ([`Waited::Stuck`]), and an expiry records it. Both ends that are
    /// not [`Waited::Answered`] probe `t`'s registration for the reaper.
    pub(crate) fn wait(
        &self,
        t: usize,
        snapshot: [u64; 2],
        deadline: &mut Option<Instant>,
        done: impl Fn() -> bool,
    ) -> Waited {
        let over = || !self.is_registered(t) || done();
        if over() {
            return Waited::Answered;
        }
        let [a, b, armed] = &*self.stuck[t];
        if armed.load(Ordering::Acquire) != 0 {
            if [a.load(Ordering::Relaxed), b.load(Ordering::Relaxed)] == snapshot {
                self.note_dead_if_confirmed(t);
                return Waited::Stuck;
            }
            armed.store(0, Ordering::Relaxed);
        }
        let mut spins = 0u32;
        while !over() {
            core::hint::spin_loop();
            spins = spins.wrapping_add(1);
            if !spins.is_multiple_of(CLOCK_EVERY) {
                continue;
            }
            if self.deadline_ns > 0 {
                let now = Instant::now();
                let at =
                    *deadline.get_or_insert_with(|| now + Duration::from_nanos(self.deadline_ns));
                if now >= at {
                    a.store(snapshot[0], Ordering::Relaxed);
                    b.store(snapshot[1], Ordering::Relaxed);
                    armed.store(1, Ordering::Release);
                    self.note_dead_if_confirmed(t);
                    return Waited::TimedOut;
                }
            }
            // The peer may be descheduled behind this very thread on an
            // oversubscribed host: give it the CPU. With nothing else
            // runnable here, the yield returns at once.
            std::thread::yield_now();
        }
        Waited::Answered
    }
}

/// How a [`Peers::wait`] ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Waited {
    /// The peer answered or left the table.
    Answered,
    /// The pass deadline expired first; the peer's snapshot is recorded.
    TimedOut,
    /// Skipped: a wait already timed out on the peer at this snapshot.
    Stuck,
}

/// Shared reservation state for one publish-on-ping domain.
pub(crate) struct PopShared {
    /// Registration, dispatch, wait and reap.
    pub(crate) peers: Peers,
    /// `localReservations[tid][slot]` — owner-written (relaxed), read by the
    /// owner's own signal handler and by diagnostic code.
    local: Rows<&'static [Line]>,
    /// `sharedReservations[tid][slot]` — filled on publish, scanned by
    /// reclaimers.
    pub(crate) shared: Rows<&'static [Line]>,
    /// The rows the *owner* writes reservations to, resolved once: `local`
    /// under the signal modes (published by the handler's copy), `shared`
    /// under membarrier mode (made visible by the reclaimer's heavy
    /// barrier). The owner's `Row` and `clear_local` go through it.
    pub(crate) owner: Rows<&'static [Line]>,
    /// `publishCounter[tid]`.
    counter: Box<[CachePadded<AtomicU64>]>,
    /// Per-thread operation activity word: odd while inside an operation.
    activity: Box<[CachePadded<AtomicU64>]>,
    /// Set by the watchdog (deadline expired) or a failed ping: the thread
    /// may hold reservations it never published, so reclaimers treat its
    /// *local* words as reserved too ([`Self::collect_reserved_into`] —
    /// correct-by-keep). Cleared by the thread's own next publish.
    suspect: Box<[AtomicBool]>,
    stats: Arc<DomainStats>,
    /// Membarrier publish mode (module docs): reservations live in the
    /// shared slots, the activity word is dead, `publish_tid` skips the
    /// copy, the ping filter is off, and passes run one heavy barrier
    /// instead of the fan-out. Static for the domain's lifetime — the
    /// reader-side contract must not flap.
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
    /// Allocates and leaks `base`'s shared state (see module docs for why),
    /// every knob from `base.cfg`. `membarrier` selects the membarrier
    /// publish mode: the POP schemes pass their resolved
    /// [`crate::config::PublishMode`], HPAsym always `true`.
    pub(crate) fn for_domain(base: &DomainBase, membarrier: bool) -> &'static Self {
        let nthreads = base.cfg.max_threads;
        let rows = || Rows::new(nthreads, base.cfg.slots).leak();
        let (local, shared) = (rows(), rows());
        Box::leak(Box::new(PopShared {
            peers: Peers::new(&base.cfg),
            local,
            shared,
            owner: if membarrier { shared } else { local },
            counter: zeroed(nthreads),
            activity: zeroed(nthreads),
            suspect: zeroed(nthreads),
            stats: Arc::clone(&base.stats),
            membarrier,
            downgraded: AtomicBool::new(false),
            mb_passes: CachePadded::new(AtomicU64::new(0)),
        }))
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
        // Membarrier mode skips the fence — that is its whole win — which
        // voids the elision argument; correspondingly, membarrier domains
        // never use the quiescent filter (module docs), not even on the
        // downgraded signal path, and nothing reads the word the store
        // would bump.
        if self.membarrier {
            return;
        }
        self.note_active_unfenced(tid);
        fence(Ordering::SeqCst);
    }

    /// The plain activity-word store of [`Self::note_active`], for a caller
    /// that issues the `SeqCst` fence itself: EpochPOP shares one fence
    /// between this word and its epoch announcement. EpochPOP fences in
    /// every publish mode, because its epoch min-scan pairs with that fence
    /// even where the activity word is dead — so it must not go through
    /// `note_active`, which skips the fence in membarrier mode. The fence
    /// must come before the operation's first load *and* its first
    /// reservation store: a ping that still finds the word even publishes
    /// an empty row.
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
    /// stands between the owner's words and the scan, and the activity
    /// word is dead.
    #[inline]
    pub(crate) fn end_op(&self, tid: usize) {
        if self.membarrier {
            self.clear_local(tid);
            return;
        }
        let a = self.activity[tid].load(Ordering::Relaxed);
        self.activity[tid].store((a | 1).wrapping_add(1), Ordering::Release);
    }

    /// Paper's `clear()` (Alg. 1 line 23): zero the owner's row. Off the
    /// operation path in the signal modes (hence out of line); shared slots
    /// keep their last published value until the next ping.
    #[inline(never)]
    pub(crate) fn clear_local(&self, tid: usize) {
        self.owner.clear(tid);
    }

    /// Joins the domain's ping set.
    pub(crate) fn register(&self, tid: usize, gtid: usize) {
        self.local.clear(tid);
        self.shared.clear(tid);
        // Fresh occupants start quiescent; any parity left by a previous
        // occupant is normalized.
        let a = self.activity[tid].load(Ordering::Relaxed);
        self.activity[tid].store((a | 1).wrapping_add(1), Ordering::Relaxed);
        self.suspect[tid].store(false, Ordering::Relaxed);
        // Publishes the cleared slots before the thread is pingable.
        self.peers.bind(tid, gtid);
    }

    /// Leaves the ping set, flushing empty reservations (a quiescent
    /// owner publishes nothing) so any reclaimer concurrently waiting on
    /// this thread observes either the counter increment or the
    /// deregistration.
    pub(crate) fn unregister(&self, tid: usize) {
        self.end_op(tid);
        self.publish_tid(tid);
        self.peers.leave(tid);
    }

    /// The paper's `publishReservations` (Alg. 2 line 40): copy local →
    /// shared — or store an empty row when the owner is between operations
    /// (module docs) — one fence, bump the publish counter. Runs on `tid`'s
    /// own thread, so the activity word it reads cannot change under it.
    /// Async-signal-safe: atomics only, no syscall outside the
    /// `PublishDelay` fault site.
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
        // via another domain's ping). The publish
        // degenerates to fence + suspect-clear + counter bump, which is
        // exactly what the signal fallback path needs from it.
        if !self.membarrier {
            let in_op = self.activity[tid].load(Ordering::Relaxed) & 1 != 0;
            for (local, shared) in self.local.row(tid).iter().zip(self.shared.row(tid)) {
                let w = if in_op {
                    local.load(Ordering::Relaxed)
                } else {
                    0
                };
                shared.store(w, Ordering::Relaxed);
            }
        }
        self.announce_row(tid);
        self.stats
            .shard(tid)
            .publishes
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Makes `tid`'s just-written shared row count as published: fence,
    /// end suspicion, bump the counter.
    fn announce_row(&self, tid: usize) {
        // The single fence that replaces one-fence-per-read of classic HP.
        fence(Ordering::SeqCst);
        // A completed publish is proof of life: the thread's shared words
        // are current again, so conservative suspect handling can end.
        self.suspect[tid].store(false, Ordering::Relaxed);
        // Release: a waiter whose Acquire load sees the bump sees the row.
        self.counter[tid].fetch_add(1, Ordering::Release);
    }

    /// Whether thread `t` may be skipped by `pingAllToPublish`: quiescent
    /// (activity word even), not suspect, with an empty published row. Its
    /// private words are not consulted — a quiescent thread's are dead.
    /// Must run after the caller's `SeqCst` fence (see module docs).
    fn is_provably_quiescent(&self, t: usize) -> bool {
        // Stale non-zero shared words, or a suspect's private words, would
        // pin garbage without a refreshing publish — always ping those.
        self.activity[t].load(Ordering::SeqCst) & 1 == 0
            && !self.suspect[t].load(Ordering::Acquire)
            && self.shared.is_empty(t)
    }

    /// The membarrier-mode replacement for the whole ping/wait sequence:
    /// one heavy barrier, no signals, no waits — and the **single** place
    /// `membarriers` is counted. Returns `false` on barrier failure
    /// **after stickily downgrading the domain** — the caller falls through
    /// to the signal fan-out.
    fn membarrier_pass(&self, me: usize) -> bool {
        // Order our own prior unlinks before the barrier (the barrier
        // syscall is itself a full barrier on this CPU, but the fence
        // keeps the argument local and costs nothing next to the IPI).
        fence(Ordering::SeqCst);
        if !pop_runtime::membarrier::heavy() {
            // Probe failed (HPAsym on a host without membarrier), seccomp
            // landed after init, or an injected MembarrierFail: never try
            // again — a mode that flaps would make every pass pay a
            // failing syscall — and run this pass through the fan-out.
            self.downgraded.store(true, Ordering::Release);
            return false;
        }
        let peers = self.peers.others(me).count() as u64;
        let shard = self.stats.shard(me);
        shard.membarriers.fetch_add(1, Ordering::Relaxed);
        shard.membarrier_passes.fetch_add(1, Ordering::Relaxed);
        shard.signals_avoided.fetch_add(peers, Ordering::Relaxed);
        // Dead-peer probe (module docs): no waits ⇒ no watchdog ⇒ probe
        // registrations on a period instead. Runs on the first pass, then
        // every MEMBARRIER_DEAD_PROBE_EVERY-th.
        let n = self.mb_passes.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(MEMBARRIER_DEAD_PROBE_EVERY) {
            for t in self.peers.others(me) {
                self.peers.note_dead_if_confirmed(t);
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
        collected.resize(self.peers.len(), SKIP);
        for t in self.peers.others(me) {
            collected[t] = self.counter[t].load(Ordering::Acquire);
        }
        fence(Ordering::SeqCst);
        // Membarrier-configured domains never elide pings: their
        // `note_active` is fence-free, which voids the two-SC-fence
        // elision proof, so the (downgrade-only) signal path here must
        // ping every registered peer.
        let filter = !self.membarrier;
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
            match self.peers.ping(t) {
                PingOutcome::Sent => pings += 1,
                // Deregistered between collection and the ping: the
                // departing flush (or a proxy publish) satisfies the wait
                // below, so keep waiting on the counter.
                PingOutcome::Inactive => {}
                PingOutcome::Dead | PingOutcome::Failed(_) => {
                    // The thread is gone (and queued for the reaper once
                    // the registry confirms it), or the send failed: the
                    // signal will not arrive, so never wait for it. Its
                    // words stay honored conservatively (suspect ⇒ local ∪
                    // shared).
                    failed += 1;
                    self.suspect[t].store(true, Ordering::Release);
                    *c = SKIP;
                }
            }
        }
        let shard = self.stats.shard(me);
        shard.pings_sent.fetch_add(pings, Ordering::Relaxed);
        shard.pings_failed.fetch_add(failed, Ordering::Relaxed);
        shard.pings_skipped.fetch_add(skipped, Ordering::Relaxed);
        let mut deadline = None;
        let mut timeouts = 0u64;
        for (t, &observed) in collected.iter().enumerate() {
            if observed == SKIP {
                continue;
            }
            // Acquire pairs with the handler's Release increment, making
            // the published reservations visible to the scan. A thread
            // that deregistered flushed empty reservations on the way out.
            let waited = self.peers.wait(t, [observed, 0], &mut deadline, || {
                self.counter[t].load(Ordering::Acquire) > observed
            });
            if waited != Waited::Answered {
                // The watchdog expired with this peer unpublished, now or
                // on an earlier pass at this same counter. Correctness is
                // preserved by keeping, not by waiting: the suspect flag
                // makes the scan honor its unpublished local words too.
                self.suspect[t].store(true, Ordering::Release);
                timeouts += u64::from(waited == Waited::TimedOut);
            }
        }
        if timeouts > 0 {
            shard
                .publish_wait_timeouts
                .fetch_add(timeouts, Ordering::Relaxed);
        }
    }

    /// Scans `sharedReservations` of every registered thread (Alg. 2
    /// lines 28–31) into `out` as a sorted, deduplicated set of non-zero
    /// words; allocation-free once `out` has grown to its working capacity.
    pub(crate) fn collect_reserved_into(&self, out: &mut Vec<u64>) {
        out.clear();
        for t in 0..self.peers.len() {
            if !self.peers.is_registered(t) {
                continue;
            }
            // A suspect thread (watchdog expiry / failed ping) may hold
            // reservations it never published: honor its *local* words too.
            // Correct-by-keep — the worst case is garbage surviving one
            // extra pass; racing torn reads are impossible (words are
            // single atomics) and stale reads only widen the keep set.
            self.shared.push_words(t, out);
            if self.suspect[t].load(Ordering::Acquire) {
                self.local.push_words(t, out);
            }
        }
        out.sort_unstable();
        out.dedup();
    }

    /// Removes a **confirmed-dead** participant from the ping set on its
    /// behalf: zeroes its reservations, then [`Peers::evict`] unbinds it.
    ///
    /// Caller contract: the thread behind `tid` is dead (its registry
    /// registration was reaped), so nothing races the owner-side stores
    /// below; a dead thread's reservations protect nothing because it can
    /// no longer dereference.
    pub(crate) fn force_unregister(&self, tid: usize) {
        self.local.clear(tid);
        self.shared.clear(tid);
        self.peers.evict(tid);
    }
}

impl Publisher for PopShared {
    /// Signal-handler entry: publish for whichever domain tid the pinged
    /// thread holds ([`Peers::dispatch`]); atomics and one fence per tid.
    fn publish(&self, gtid: usize) {
        self.peers.dispatch(gtid, |t| self.publish_tid(t));
    }
}

/// Test observability, and the clear-on-ping rule driven through a whole
/// scheme; shared by the POP schemes' unit tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;
    use crate::config::{PublishMode, SmrConfig};
    use crate::header::{HasHeader, Header};
    use crate::smr::{alloc_node, retire_node, Smr};
    use core::sync::atomic::AtomicPtr;
    use std::sync::mpsc::channel;

    impl PopShared {
        /// Owner-side reservation store (the publishers' `reserve`).
        pub(crate) fn set_local(&self, tid: usize, slot: usize, word: u64) {
            self.owner.row(tid)[slot].store(word, Ordering::Relaxed);
        }

        /// Owner-side read of a reservation word.
        pub(crate) fn local_at(&self, tid: usize, slot: usize) -> u64 {
            self.owner.row(tid)[slot].load(Ordering::Relaxed)
        }

        /// Allocating [`Self::collect_reserved_into`].
        pub(crate) fn collect_reserved(&self) -> Vec<u64> {
            let mut v = Vec::with_capacity(self.peers.len() * self.shared.slots);
            self.collect_reserved_into(&mut v);
            v
        }

        /// Published counter value.
        pub(crate) fn counter_of(&self, tid: usize) -> u64 {
            self.counter[tid].load(Ordering::Acquire)
        }
    }

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
    use crate::config::{SmrConfig, DEFAULT_PUBLISH_DEADLINE_NS};

    /// An instance for `n` tids of `slots` words with the given publish-wait
    /// deadline (pinned, so no `POP_*` override reaches it).
    fn leak(n: usize, slots: usize, deadline_ns: u64, mb: bool) -> &'static PopShared {
        let cfg = SmrConfig::for_tests(n)
            .with_slots(slots)
            .with_publish_deadline_ns(deadline_ns);
        PopShared::for_domain(&DomainBase::new(cfg), mb)
    }

    fn mk(n: usize, slots: usize) -> &'static PopShared {
        leak(n, slots, DEFAULT_PUBLISH_DEADLINE_NS, false)
    }

    /// A membarrier-mode instance (reservations in shared slots, fan-out
    /// replaced by one heavy barrier) — HPAsym's engine.
    fn mk_mb(n: usize, slots: usize) -> &'static PopShared {
        leak(n, slots, DEFAULT_PUBLISH_DEADLINE_NS, true)
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
                let base = &rows.row(t)[0] as *const AtomicU64 as usize;
                let last = &rows.row(t)[slots - 1] as *const AtomicU64 as usize;
                assert_eq!(base % 64, 0, "row {t} of {slots} slots");
                assert_eq!(last - base, (slots - 1) * 8, "row is contiguous");
                assert_eq!(rows.row(t).len(), slots);
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
        use crate::schemes::hazard::{HazardEra, HazardPtr};
        use crate::smr::Smr;
        for (n, slots) in [(4, 1), (4, 8), (3, 9), (2, 16)] {
            // `mk_mb` is HPAsym's engine.
            for p in [mk(n, slots), mk_mb(n, slots)] {
                assert_line_aligned_and_distinct(&[&p.local, &p.shared], n, slots);
                let owner = if p.membarrier { p.shared } else { p.local };
                assert!(
                    core::ptr::eq(p.owner.lines, owner.lines),
                    "owner resolved at construction"
                );
            }
            // The `Fence` publisher's one array of rows is the same layout.
            let cfg = SmrConfig::for_tests(n).with_slots(slots);
            let hp = HazardPtr::new(cfg.clone());
            assert_line_aligned_and_distinct(&[&hp.publish.rows], n, slots);
            let he = HazardEra::new(cfg);
            assert_line_aligned_and_distinct(&[&he.publish.rows], n, slots);
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
    fn wait_sees_cross_thread_publish() {
        // The waiter spins and yields past many clock reads before the
        // first publish lands; a publish from another thread must end the
        // wait, with no timeout counted.
        let p = mk(2, 1);
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
                // First publish delayed past the wait's yield threshold;
                // then keep publishing in case the first one raced ahead
                // of the waiter's counter collection.
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
            "the publish must end the wait"
        );
        assert_eq!(p.stats.snapshot().publish_wait_timeouts, 0);
        assert_eq!(p.collect_reserved(), vec![0xFEED]);
    }

    #[test]
    fn watchdog_unwedges_wait_on_never_publishing_peer() {
        // Peer 1 looks active with a reservation but will NEVER publish
        // (fake gtid: the ping goes nowhere, and no helper publishes for
        // it). Pre-watchdog this wait was unbounded; now the pass must
        // complete within the deadline, keep the peer's unpublished local
        // word conservatively, and count the timeout.
        let p = leak(2, 1, 50_000_000, false); // 50 ms deadline
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
        assert_eq!(p.peers.take_dead(), None);
        // Nine more passes find the peer's counter unmoved: no wait, no
        // timeout, and its local word still honored.
        let t1 = std::time::Instant::now();
        for _ in 0..9 {
            p.ping_all_and_wait(0, &mut scratch);
        }
        assert!(t1.elapsed() < elapsed, "a stuck peer costs one deadline");
        assert_eq!(p.stats.snapshot().publish_wait_timeouts, 1);
        assert_eq!(p.collect_reserved(), vec![0xDEAD_BEEF]);
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
        let p = leak(2, 1, 0, false);
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
        let p = leak(2, 1, 50_000_000, false); // 50 ms deadline
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
        let t = p.peers.take_dead().expect("dead peer must be flagged");
        assert_eq!(t, 1);
        assert_eq!(p.peers.take_dead(), None, "flag is consumed exactly once");
        let (g, gen2) = p.peers.registration_of(1).unwrap();
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

    #[test]
    fn idle_suspect_is_pinged_until_it_publishes() {
        // A suspect's private words are unioned into every scan. Once it
        // goes idle with an empty shared row, only a ping makes it publish
        // again and end the suspicion, so the filter must not elide it.
        let p = leak(2, 1, 0, false);
        p.register(0, 100);
        p.register(1, 101);
        p.note_active(1);
        p.set_local(1, 0, 0xFEED);
        p.suspect[1].store(true, Ordering::Release);
        p.end_op(1);
        // Stands in for peer 1's handler: the fake gtid's ping goes nowhere.
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
        assert_eq!(p.stats.snapshot().pings_skipped, 0, "a suspect is pinged");
        assert!(
            p.collect_reserved().is_empty(),
            "its idle publish ends the suspicion and drops its dead words"
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
        // handler) runs this
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
    fn membarrier_mode_never_sets_suspects() {
        if !pop_runtime::membarrier::is_available() {
            return;
        }
        let p = mk_mb(2, 1);
        p.register(0, 100);
        p.register(1, 101);
        let mut scratch = Vec::new();
        p.ping_all_and_wait(0, &mut scratch);
        assert!(
            p.suspect.iter().all(|s| !s.load(Ordering::Acquire)),
            "pure membarrier mode never suspects anyone"
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
            .peers
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
