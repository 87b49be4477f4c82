//! Process-global thread registry.
//!
//! Publish-on-ping reclaimers need to signal every thread that may hold
//! private reservations. POSIX signals address a `pthread_t`, so each
//! participating thread claims a slot in this registry, publishing its
//! `pthread_t` under a small integer *global thread id* (`gtid`). Reclaimers
//! iterate slots and [`Registry::ping`] the active ones.
//!
//! ## Why a per-slot kill lock
//!
//! `pthread_kill` on a thread id whose thread has terminated and been joined
//! is undefined behaviour. The registration guard therefore deregisters
//! *before* the thread exits, and deregistration synchronizes with
//! concurrent pingers through a per-slot spinlock held only around the
//! `pthread_kill` call itself. The signal handler never takes this lock, so
//! async-signal-safety is preserved.

use core::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;

/// Maximum number of concurrently registered threads in the process.
///
/// The signal handler performs a bounded scan over this table, so it is a
/// fixed compile-time size. 512 covers the paper's largest experiment (288
/// threads on a 144-core machine) with room for test harness threads.
pub const MAX_THREADS: usize = 512;

/// What became of a [`Registry::ping`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PingOutcome {
    /// Signal queued — the target may be expected to publish.
    Sent,
    /// Slot holds no live registration; nothing to wait for.
    Inactive,
    /// `pthread_kill` reported `ESRCH`: the registered thread is gone.
    /// Callers must stop waiting for it and feed it to their reaper.
    /// On glibc ≥ 2.35 a dead-but-unjoined thread instead reports
    /// [`PingOutcome::Sent`] (the kill silently no-ops), so waiters must
    /// not rely on this outcome alone — the publish-wait watchdog's
    /// [`Registry::probe`] path is the authoritative death detector.
    Dead,
    /// `pthread_kill` failed with an unexpected errno (carried here).
    /// Never expected in practice; counted by [`ping_error_count`].
    Failed(i32),
}

/// Result of a [`Registry::probe`] liveness check.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Liveness {
    /// The registration is still held by a live, signalable thread.
    Alive,
    /// The slot is still claimed by that registration, but the OS reports
    /// the thread no longer exists (died without deregistering).
    Dead,
    /// That registration no longer holds the slot (deregistered cleanly,
    /// or the slot was reclaimed by a newer generation).
    Vacated,
}

/// `pthread_kill` failures other than `ESRCH`, process-wide (satellite
/// observability for the "never expected" branch of [`Registry::ping`]).
static PING_ERRORS: AtomicU64 = AtomicU64::new(0);

/// Number of pings that failed with an errno other than `ESRCH`.
pub fn ping_error_count() -> u64 {
    PING_ERRORS.load(Ordering::Relaxed)
}

/// One registry slot. Field ordering of writes during registration matters:
/// `pthread` is stored *before* `active` is released, so a scanning signal
/// handler can never attribute a slot to a stale `pthread_t`.
struct Slot {
    /// The owner's `pthread_t`. Valid only while `active` is true.
    pthread: AtomicU64,
    /// The owner's kernel task id (`gettid`), for liveness probes: the
    /// kernel releases a tid the moment its thread exits (threads self-reap
    /// without a join), so `tgkill(pid, tid, 0)` reports `ESRCH` for a dead
    /// thread where `pthread_kill(pt, 0)` on glibc ≥ 2.35 silently
    /// succeeds. Stored as `i64` widened into a `u64` cell.
    kernel_tid: AtomicU64,
    /// Slot is claimed and the owner thread is alive and signalable.
    active: AtomicBool,
    /// Serializes `pthread_kill` against deregistration (see module docs).
    kill_lock: AtomicBool,
    /// Bumped on every claim. A `(gtid, generation)` pair names one
    /// registration forever: liveness probes compare it so a reused slot
    /// can never be mistaken for the registration that died there.
    generation: AtomicU64,
}

impl Slot {
    const fn new() -> Self {
        Slot {
            pthread: AtomicU64::new(0),
            kernel_tid: AtomicU64::new(0),
            active: AtomicBool::new(false),
            kill_lock: AtomicBool::new(false),
            generation: AtomicU64::new(0),
        }
    }

    fn lock(&self) {
        while self
            .kill_lock
            .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            core::hint::spin_loop();
        }
    }

    fn unlock(&self) {
        self.kill_lock.store(false, Ordering::Release);
    }
}

/// The calling thread's kernel task id (0 where unavailable).
fn current_tid() -> u64 {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `gettid` takes no arguments and cannot fail.
        (unsafe { libc::syscall(libc::SYS_gettid) } as libc::pid_t) as u64
    }
    #[cfg(not(target_os = "linux"))]
    {
        0
    }
}

/// Whether the kernel says task `tid` of this process no longer exists.
///
/// `false` on any ambiguity (tid 0, non-Linux, unexpected errno): liveness
/// probing must only ever fail toward "alive" — a reused tid makes a dead
/// thread look alive (reap deferred, still correct), never the reverse.
fn tid_gone(tid: u64) -> bool {
    #[cfg(target_os = "linux")]
    {
        if tid == 0 {
            return false;
        }
        // SAFETY: signal 0 delivers nothing — `tgkill` only checks that the
        // task exists; the arguments are plain integers.
        let rc = unsafe { libc::syscall(libc::SYS_tgkill, libc::getpid(), tid as libc::pid_t, 0) };
        // SAFETY: `__errno_location` returns this thread's errno slot, valid
        // for the thread's lifetime.
        rc != 0 && unsafe { *libc::__errno_location() } == libc::ESRCH
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = tid;
        false
    }
}

/// Process-global table of signalable threads.
pub struct Registry {
    slots: Box<[Slot]>,
    /// Upper bound (exclusive) on claimed slot indices, to shorten scans.
    high_water: AtomicU64,
}

static GLOBAL: OnceLock<Registry> = OnceLock::new();

/// Registry access that never allocates: `None` until first registration.
///
/// The signal handler must not run `OnceLock::get_or_init` (it allocates),
/// so it uses this accessor; the registry is always initialized before any
/// thread can be pinged.
pub(crate) fn try_global() -> Option<&'static Registry> {
    GLOBAL.get()
}

impl Registry {
    fn new() -> Self {
        let mut v = Vec::with_capacity(MAX_THREADS);
        v.resize_with(MAX_THREADS, Slot::new);
        Registry {
            slots: v.into_boxed_slice(),
            high_water: AtomicU64::new(0),
        }
    }

    /// The process-wide registry instance.
    pub fn global() -> &'static Registry {
        GLOBAL.get_or_init(Registry::new)
    }

    /// Registers the calling thread, returning an RAII guard that
    /// deregisters on drop. Panics if all [`MAX_THREADS`] slots are taken.
    ///
    /// Also installs the process-global signal handler on first use, so any
    /// registered thread is ready to service pings.
    pub fn register_current(&'static self) -> ThreadRegistration {
        crate::signal::install_handler();
        // SAFETY: `pthread_self` has no preconditions.
        let me = unsafe { libc::pthread_self() } as u64;
        for (i, slot) in self.slots.iter().enumerate() {
            if slot.active.load(Ordering::Relaxed) {
                continue;
            }
            // Claim the slot: the CAS on `active` false->true is the unique
            // claim token; `pthread` is written while we exclusively own the
            // slot but *before* other threads consider it pingable.
            slot.lock();
            let claimed = slot
                .active
                .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok();
            if claimed {
                slot.pthread.store(me, Ordering::Release);
                slot.kernel_tid.store(current_tid(), Ordering::Release);
                slot.generation.fetch_add(1, Ordering::Release);
            }
            slot.unlock();
            if claimed {
                self.high_water.fetch_max(i as u64 + 1, Ordering::Relaxed);
                return ThreadRegistration {
                    registry: self,
                    gtid: i,
                };
            }
        }
        panic!("pop-runtime: thread registry exhausted ({MAX_THREADS} slots)");
    }

    fn deregister(&self, gtid: usize) {
        let slot = &self.slots[gtid];
        // Holding the kill lock guarantees no pinger is mid-`pthread_kill`
        // on our pthread_t when we mark the slot inactive and return.
        slot.lock();
        slot.active.store(false, Ordering::Release);
        slot.unlock();
    }

    /// Sends `signo` to the thread registered at `gtid`.
    ///
    /// The outcome distinguishes the three ways a ping can fail:
    /// [`PingOutcome::Inactive`] (deregistered — don't wait),
    /// [`PingOutcome::Dead`] (`ESRCH`: the thread died *without*
    /// deregistering — don't wait, and reap it), and
    /// [`PingOutcome::Failed`] (any other errno; glibc returns the error
    /// number directly). The last should be impossible for a valid
    /// `pthread_t` and live signal handler, so it debug-asserts and is
    /// counted by [`ping_error_count`].
    pub fn ping(&self, gtid: usize, signo: i32) -> PingOutcome {
        let slot = &self.slots[gtid];
        if !slot.active.load(Ordering::Acquire) {
            return PingOutcome::Inactive;
        }
        slot.lock();
        let out = if slot.active.load(Ordering::Relaxed) {
            let pt = slot.pthread.load(Ordering::Relaxed) as libc::pthread_t;
            // SAFETY: `pt` is the handle the slot's owner stored at
            // registration, and the kill lock held here keeps the owner from
            // deregistering (and its handle from going stale) until we
            // return; a thread that died without deregistering yields ESRCH.
            match unsafe { libc::pthread_kill(pt, signo) } {
                0 => PingOutcome::Sent,
                // ESRCH (no such thread): the OS tells us the registered
                // thread is gone (paper §4.1.2 tolerates this; the reaper
                // recovers its state).
                libc::ESRCH => PingOutcome::Dead,
                e => {
                    PING_ERRORS.fetch_add(1, Ordering::Relaxed);
                    debug_assert!(false, "pthread_kill(gtid {gtid}) failed with errno {e}");
                    PingOutcome::Failed(e)
                }
            }
        } else {
            PingOutcome::Inactive
        };
        slot.unlock();
        out
    }

    /// Whether `gtid` currently holds a live registration.
    pub fn is_active(&self, gtid: usize) -> bool {
        self.slots[gtid].active.load(Ordering::Acquire)
    }

    /// The current claim generation of `gtid`'s slot. Capture this at
    /// registration time; `(gtid, generation)` then names that
    /// registration for [`Self::probe`]/[`Self::reap`] even after the slot
    /// is recycled.
    pub fn generation_of(&self, gtid: usize) -> u64 {
        self.slots[gtid].generation.load(Ordering::Acquire)
    }

    /// Probes whether the registration `(gtid, generation)` still belongs
    /// to a live thread, without delivering a signal.
    ///
    /// Uses a sig-0 `tgkill` on the kernel tid recorded at registration —
    /// not `pthread_kill`, which on glibc ≥ 2.35 silently succeeds for an
    /// exited-but-unjoined thread and so can never report death.
    ///
    /// Conservative on every race: an ambiguous probe (tid reused by a new
    /// thread, unexpected errno, non-Linux) reads as [`Liveness::Alive`]
    /// (never reap on ambiguity), and a slot reclaimed by a newer
    /// generation reads as [`Liveness::Vacated`] — the probed registration
    /// is gone either way, but the new occupant is not misjudged by the old
    /// one's fate.
    pub fn probe(&self, gtid: usize, generation: u64) -> Liveness {
        let slot = &self.slots[gtid];
        if !slot.active.load(Ordering::Acquire) {
            return Liveness::Vacated;
        }
        slot.lock();
        let out = if !slot.active.load(Ordering::Relaxed)
            || slot.generation.load(Ordering::Relaxed) != generation
        {
            Liveness::Vacated
        } else if tid_gone(slot.kernel_tid.load(Ordering::Relaxed)) {
            Liveness::Dead
        } else {
            Liveness::Alive
        };
        slot.unlock();
        out
    }

    /// Releases the slot of a registration whose thread died without
    /// deregistering. Succeeds only when `(gtid, generation)` still holds
    /// the slot *and* the kernel-tid probe confirms the thread is gone,
    /// re-checked under the kill lock — a live or vacated registration is
    /// never disturbed.
    pub fn reap(&self, gtid: usize, generation: u64) -> bool {
        let slot = &self.slots[gtid];
        slot.lock();
        let reaped = slot.active.load(Ordering::Relaxed)
            && slot.generation.load(Ordering::Relaxed) == generation
            && tid_gone(slot.kernel_tid.load(Ordering::Relaxed));
        if reaped {
            slot.active.store(false, Ordering::Release);
        }
        slot.unlock();
        reaped
    }

    /// Locates the calling thread's gtid by scanning for `pthread_self()`.
    ///
    /// Async-signal-safe: a bounded loop of relaxed/acquire atomic loads.
    /// Used by the signal handler instead of TLS (lazily-initialized TLS is
    /// not async-signal-safe).
    pub fn find_current(&self) -> Option<usize> {
        // SAFETY: `pthread_self` has no preconditions and is
        // async-signal-safe.
        let me = unsafe { libc::pthread_self() } as u64;
        let hw = self.high_water.load(Ordering::Relaxed) as usize;
        for i in 0..hw.min(MAX_THREADS) {
            let slot = &self.slots[i];
            // Acquire on `active` orders the subsequent pthread load after
            // the registrant's Release store of its pthread.
            if slot.active.load(Ordering::Acquire) && slot.pthread.load(Ordering::Acquire) == me {
                return Some(i);
            }
        }
        None
    }

    /// Number of slots that may have ever been claimed (scan bound).
    pub fn scan_bound(&self) -> usize {
        (self.high_water.load(Ordering::Relaxed) as usize).min(MAX_THREADS)
    }
}

/// RAII registration for the current thread.
///
/// Dropping the guard deregisters the thread; every registered thread *must*
/// drop its guard before exiting (the guard makes this automatic for scoped
/// and spawned threads that own it).
pub struct ThreadRegistration {
    registry: &'static Registry,
    gtid: usize,
}

impl ThreadRegistration {
    /// The global thread id claimed by this registration.
    pub fn gtid(&self) -> usize {
        self.gtid
    }
}

impl Drop for ThreadRegistration {
    fn drop(&mut self) {
        self.registry.deregister(self.gtid);
    }
}

// ---------------------------------------------------------------------------
// Shared (refcounted) registration
// ---------------------------------------------------------------------------

std::thread_local! {
    /// One underlying registration per OS thread, shared by every
    /// reclamation domain the thread participates in. Critical for the
    /// signal handler's `find_current` scan: a thread must occupy exactly
    /// one slot, or publishers keyed on the *first* matching slot would miss
    /// domains that recorded a different gtid for the same thread.
    static SHARED_REG: core::cell::RefCell<Option<(ThreadRegistration, usize)>> =
        const { core::cell::RefCell::new(None) };
}

/// Refcounted handle to the calling thread's global registration.
///
/// Multiple live handles on one thread share a single registry slot; the
/// slot is released when the last handle drops (or at thread exit via the
/// TLS destructor, as a safety net). Not `Send`: the handle is bound to the
/// registering thread.
pub struct SharedRegistration {
    gtid: usize,
    _not_send: core::marker::PhantomData<*const ()>,
}

impl SharedRegistration {
    /// The calling thread's global thread id.
    pub fn gtid(&self) -> usize {
        self.gtid
    }
}

/// Registers the calling thread (or bumps the refcount of its existing
/// registration) and returns a shared handle.
pub fn register_current_shared() -> SharedRegistration {
    let gtid = SHARED_REG.with(|cell| {
        let mut slot = cell.borrow_mut();
        match slot.as_mut() {
            Some((reg, count)) => {
                *count += 1;
                reg.gtid()
            }
            None => {
                let reg = Registry::global().register_current();
                let gtid = reg.gtid();
                *slot = Some((reg, 1));
                gtid
            }
        }
    });
    SharedRegistration {
        gtid,
        _not_send: core::marker::PhantomData,
    }
}

impl Drop for SharedRegistration {
    fn drop(&mut self) {
        // At thread exit the TLS cell may already be destructed; in that
        // case the inner ThreadRegistration's own destructor has run and
        // the slot is released — nothing left to do.
        let _ = SHARED_REG.try_with(|cell| {
            let mut slot = cell.borrow_mut();
            if let Some((_, count)) = slot.as_mut() {
                *count -= 1;
                if *count == 0 {
                    *slot = None;
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn register_and_find_self() {
        let reg = Registry::global();
        let guard = reg.register_current();
        assert!(reg.is_active(guard.gtid()));
        assert_eq!(reg.find_current(), Some(guard.gtid()));
        let gtid = guard.gtid();
        drop(guard);
        assert!(!reg.is_active(gtid));
    }

    #[test]
    fn distinct_threads_distinct_gtids() {
        let seen = Arc::new(std::sync::Mutex::new(Vec::new()));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let seen = Arc::clone(&seen);
            let barrier = Arc::clone(&barrier);
            handles.push(std::thread::spawn(move || {
                let g = Registry::global().register_current();
                seen.lock().unwrap().push(g.gtid());
                // Hold all registrations live simultaneously so ids can't be
                // recycled between threads.
                barrier.wait();
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let mut v = seen.lock().unwrap().clone();
        v.sort_unstable();
        v.dedup();
        assert_eq!(v.len(), 8, "gtids must be unique while concurrently held");
    }

    #[test]
    fn slot_reuse_after_deregister() {
        let reg = Registry::global();
        let g1 = reg.register_current();
        let gtid1 = g1.gtid();
        drop(g1);
        // Same thread re-registering typically reclaims the lowest free slot.
        let g2 = reg.register_current();
        assert!(g2.gtid() <= gtid1 || reg.is_active(g2.gtid()));
    }

    #[test]
    fn shared_registration_refcounts() {
        std::thread::spawn(|| {
            let a = crate::registry::register_current_shared();
            let b = crate::registry::register_current_shared();
            assert_eq!(a.gtid(), b.gtid(), "one slot per thread");
            let gtid = a.gtid();
            drop(a);
            assert!(
                Registry::global().is_active(gtid),
                "slot must stay active while one handle lives"
            );
            drop(b);
            assert!(
                !Registry::global().is_active(gtid),
                "slot released when last handle drops"
            );
        })
        .join()
        .unwrap();
    }

    #[test]
    fn ping_inactive_slot_is_noop() {
        let reg = Registry::global();
        // Find a definitely-inactive slot near the top of the table.
        assert_eq!(
            reg.ping(MAX_THREADS - 1, libc::SIGUSR1),
            PingOutcome::Inactive
        );
    }

    #[test]
    fn stale_generation_probes_vacated() {
        let reg = Registry::global();
        let g1 = reg.register_current();
        let gtid = g1.gtid();
        let gen = reg.generation_of(gtid);
        assert_eq!(reg.probe(gtid, gen), Liveness::Alive);
        drop(g1);
        assert_eq!(
            reg.probe(gtid, gen),
            Liveness::Vacated,
            "a cleanly deregistered registration is vacated, not dead"
        );
        assert!(!reg.reap(gtid, gen), "nothing to reap after deregistration");
        let g2 = reg.register_current();
        if g2.gtid() == gtid {
            assert!(
                reg.generation_of(gtid) > gen,
                "reclaiming a slot must advance its generation"
            );
            assert_eq!(
                reg.probe(gtid, gen),
                Liveness::Vacated,
                "the old generation must not see the new occupant as itself"
            );
        }
    }

    #[test]
    fn dead_registration_is_probed_and_reaped() {
        let reg = Registry::global();
        let (tx, rx) = std::sync::mpsc::channel();
        let h = std::thread::spawn(move || {
            let g = Registry::global().register_current();
            tx.send((g.gtid(), Registry::global().generation_of(g.gtid())))
                .unwrap();
            // Die without deregistering — the failure mode the reaper exists
            // for. The slot stays active with a soon-dead pthread_t.
            std::mem::forget(g);
        });
        let (gtid, gen) = rx.recv().unwrap();
        // Probe while the thread is exited but unjoined (pthread_t still
        // valid); spin until the OS reports it gone.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            match reg.probe(gtid, gen) {
                Liveness::Dead => break,
                Liveness::Alive => {
                    assert!(
                        std::time::Instant::now() < deadline,
                        "dead registration never probed as Dead"
                    );
                    std::thread::yield_now();
                }
                Liveness::Vacated => panic!("forgotten registration must stay claimed"),
            }
        }
        assert!(reg.is_active(gtid), "slot leaked by the dead thread");
        // glibc < 2.35 reports ESRCH (Dead); ≥ 2.35 silently no-ops (Sent).
        // Either way the ping must not be swallowed as an error.
        assert!(
            matches!(
                reg.ping(gtid, libc::SIGUSR1),
                PingOutcome::Dead | PingOutcome::Sent
            ),
            "pinging a dead-but-unjoined thread must not error"
        );
        assert!(reg.reap(gtid, gen), "reap must recover the leaked slot");
        assert!(!reg.is_active(gtid));
        assert!(!reg.reap(gtid, gen), "reap is one-shot");
        assert_eq!(reg.probe(gtid, gen), Liveness::Vacated);
        h.join().unwrap();
    }

    #[test]
    fn ping_self_delivers() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        struct CountPublisher;
        impl crate::signal::Publisher for CountPublisher {
            fn publish(&self, _gtid: usize) {
                HITS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let reg = Registry::global();
        let guard = reg.register_current();
        let handle = crate::signal::register_publisher(Box::leak(Box::new(CountPublisher)));
        let before = HITS.load(Ordering::SeqCst);
        assert_eq!(
            reg.ping(guard.gtid(), crate::signal::PING_SIGNAL),
            PingOutcome::Sent
        );
        // Signal to self is delivered synchronously before pthread_kill
        // returns on Linux, but be defensive and spin briefly.
        let mut spins = 0u32;
        while HITS.load(Ordering::SeqCst) == before && spins < 1_000_000 {
            core::hint::spin_loop();
            spins += 1;
        }
        assert!(HITS.load(Ordering::SeqCst) > before);
        handle.deactivate();
    }
}
