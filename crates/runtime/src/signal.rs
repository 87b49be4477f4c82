//! Process-global ping signal and publisher dispatch.
//!
//! Publish-on-ping domains (one per reclamation-scheme instance) register a
//! [`Publisher`] here. When a reclaimer pings a thread, the process-global
//! `SIGUSR1` handler runs *on that thread*, determines the thread's global
//! id by scanning the [`crate::registry::Registry`] (never TLS — see module
//! docs there), and invokes `publish(gtid)` on **every** active publisher.
//!
//! Publishing for more domains than the pinging reclaimer cares about is
//! harmless and implements the paper's observation that concurrent pings
//! coalesce: one handler execution satisfies every reclaimer that collected
//! publish counters before it ran.
//!
//! ## Lifetime rules
//!
//! Publishers are `&'static`: a handler interrupted mid-dispatch may hold a
//! publisher reference for an unbounded time, so publisher state is never
//! deallocated. Domains that shut down call [`PublisherHandle::deactivate`],
//! which stops future dispatches; the backing memory is intentionally leaked
//! by the owning domain (a few KB per domain, bounded by
//! [`MAX_PUBLISHERS`]).

use core::mem;
use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Once;

use crate::faults::{self, FaultSite};
use crate::registry::{try_global, PingOutcome, Registry};

/// The signal used for pings. `SIGUSR1` mirrors the NBR/POP artifact.
pub const PING_SIGNAL: i32 = libc::SIGUSR1;

/// Upper bound on publisher registrations over the process lifetime.
///
/// Registrations are never recycled (see module docs); test suites create a
/// domain per scheme instance, so this is sized generously.
pub const MAX_PUBLISHERS: usize = 4096;

/// An async-signal-safe reservation publisher.
///
/// # Contract
///
/// `publish` runs inside a signal handler on an arbitrary registered thread.
/// It must restrict itself to atomic loads/stores and fences: no allocation,
/// no locking, no panicking, no TLS.
pub trait Publisher: Sync {
    /// Publish the calling thread's private reservations for global thread
    /// id `gtid`, then make them visible (fence + counter increment).
    fn publish(&self, gtid: usize);
}

type Thunk = unsafe fn(*const (), usize);

struct PubSlot {
    data: AtomicPtr<()>,
    call: AtomicUsize,
    active: AtomicBool,
}

impl PubSlot {
    const fn new() -> Self {
        PubSlot {
            data: AtomicPtr::new(core::ptr::null_mut()),
            call: AtomicUsize::new(0),
            active: AtomicBool::new(false),
        }
    }
}

static PUBLISHERS: [PubSlot; MAX_PUBLISHERS] = [const { PubSlot::new() }; MAX_PUBLISHERS];
static PUB_COUNT: AtomicUsize = AtomicUsize::new(0);

unsafe fn call_thunk<P: Publisher>(data: *const (), gtid: usize) {
    // SAFETY: `data` was produced from a `&'static P` in `register_publisher`
    // and publisher memory is never deallocated.
    unsafe { (*(data as *const P)).publish(gtid) }
}

/// Handle to a registered publisher; used to stop dispatches at shutdown.
pub struct PublisherHandle {
    idx: usize,
}

impl PublisherHandle {
    /// Stops future handler dispatches to this publisher.
    ///
    /// In-flight handler executions may still observe the publisher, which
    /// is why publisher state must be `'static`.
    pub fn deactivate(&self) {
        PUBLISHERS[self.idx].active.store(false, Ordering::Release);
    }

    /// Slot index, for diagnostics.
    pub fn index(&self) -> usize {
        self.idx
    }
}

/// Registers a publisher for dispatch on every future ping.
///
/// The `&'static` bound enforces the leak-on-shutdown lifetime rule.
pub fn register_publisher<P: Publisher + 'static>(publisher: &'static P) -> PublisherHandle {
    let idx = PUB_COUNT.fetch_add(1, Ordering::AcqRel);
    assert!(
        idx < MAX_PUBLISHERS,
        "pop-runtime: publisher registry exhausted ({MAX_PUBLISHERS})"
    );
    let slot = &PUBLISHERS[idx];
    slot.data.store(
        publisher as *const P as *const () as *mut (),
        Ordering::Relaxed,
    );
    slot.call
        .store(call_thunk::<P> as *const () as usize, Ordering::Relaxed);
    // Release: the data/call stores above become visible before any handler
    // observes the slot as active.
    slot.active.store(true, Ordering::Release);
    PublisherHandle { idx }
}

/// Number of publisher slots ever claimed (diagnostics).
pub fn publisher_count() -> usize {
    PUB_COUNT.load(Ordering::Relaxed).min(MAX_PUBLISHERS)
}

/// Dispatches every active publisher for `gtid`.
///
/// Async-signal-safe; also callable outside the handler (used by
/// deregistration paths to flush a departing thread's reservations).
pub fn publish_all(gtid: usize) {
    let n = publisher_count();
    for slot in PUBLISHERS.iter().take(n) {
        // Acquire pairs with the Release in `register_publisher`.
        if slot.active.load(Ordering::Acquire) {
            let call = slot.call.load(Ordering::Relaxed);
            let data = slot.data.load(Ordering::Relaxed);
            if call != 0 && !data.is_null() {
                // SAFETY: slot was fully initialized before `active` was
                // released, and publisher memory is never freed.
                let f: Thunk = unsafe { mem::transmute::<usize, Thunk>(call) };
                // SAFETY: `call_thunk::<P>` was stored next to a `&'static P`
                // erased to `data`, so the thunk casts it back to its own type.
                unsafe { f(data as *const (), gtid) };
            }
        }
    }
}

extern "C" fn on_ping(_sig: libc::c_int) {
    // Preserve errno across the handler: publishers only touch atomics, but
    // `pthread_self`/future extensions must not clobber interrupted syscalls.
    // SAFETY: `__errno_location` returns this thread's errno slot, valid for
    // the thread's lifetime and async-signal-safe to read.
    let saved_errno = unsafe { *libc::__errno_location() };
    // Fault site: a ping that is delivered but never publishes — models a
    // blocked mask / seccomp-suppressed handler. The waiting reclaimer's
    // publish-wait watchdog must absorb this (atomics only; signal-safe).
    if !faults::fire(FaultSite::SignalDrop) {
        if let Some(registry) = try_global() {
            if let Some(gtid) = registry.find_current() {
                publish_all(gtid);
            }
        }
    }
    // SAFETY: as above — this thread's own errno slot.
    unsafe { *libc::__errno_location() = saved_errno };
}

static INSTALL: Once = Once::new();

/// Installs the process-global ping handler (idempotent).
pub(crate) fn install_handler() {
    // SAFETY: `sigaction` is a plain-data C struct for which all-zero is a
    // valid value; the handler installed is an `extern "C"` fn that only
    // touches atomics (async-signal-safe), and `Once` makes this run once.
    INSTALL.call_once(|| unsafe {
        let mut sa: libc::sigaction = mem::zeroed();
        sa.sa_sigaction = on_ping as *const () as usize;
        // SA_RESTART keeps interrupted slow syscalls (e.g. futex waits in
        // test harnesses) transparent to the rest of the program.
        sa.sa_flags = libc::SA_RESTART;
        libc::sigemptyset(&mut sa.sa_mask);
        let rc = libc::sigaction(PING_SIGNAL, &sa, core::ptr::null_mut());
        assert_eq!(rc, 0, "sigaction(SIGUSR1) failed");
    });
}

/// Pings the thread registered at `gtid` with [`PING_SIGNAL`].
///
/// Anything but [`PingOutcome::Sent`] means the caller must not wait for
/// that thread to publish: it deregistered ([`PingOutcome::Inactive`],
/// flushing on the way out), died without deregistering
/// ([`PingOutcome::Dead`] — reap it), or the send failed outright
/// ([`PingOutcome::Failed`]).
pub fn ping_gtid(gtid: usize) -> PingOutcome {
    if faults::fire(FaultSite::SignalDelay) {
        // Stall the sender long enough for the target to move (die, publish,
        // deregister) under the reclaimer's feet.
        std::thread::sleep(std::time::Duration::from_micros(50));
    }
    Registry::global().ping(gtid, PING_SIGNAL)
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::AtomicU64;
    use std::sync::atomic::AtomicBool as StdAtomicBool;
    use std::sync::Arc;
    use std::time::Duration;

    struct CounterPublisher {
        hits: [AtomicU64; crate::registry::MAX_THREADS],
    }

    impl CounterPublisher {
        fn new() -> Self {
            CounterPublisher {
                hits: [const { AtomicU64::new(0) }; crate::registry::MAX_THREADS],
            }
        }
    }

    impl Publisher for CounterPublisher {
        fn publish(&self, gtid: usize) {
            core::sync::atomic::fence(Ordering::SeqCst);
            self.hits[gtid].fetch_add(1, Ordering::Release);
        }
    }

    #[test]
    fn publish_all_dispatches_registered_publishers() {
        let p: &'static CounterPublisher = Box::leak(Box::new(CounterPublisher::new()));
        let handle = register_publisher(p);
        publish_all(7);
        assert_eq!(p.hits[7].load(Ordering::Acquire), 1);
        publish_all(7);
        assert_eq!(p.hits[7].load(Ordering::Acquire), 2);
        handle.deactivate();
        publish_all(7);
        assert_eq!(
            p.hits[7].load(Ordering::Acquire),
            2,
            "deactivated publisher must not be dispatched"
        );
    }

    /// Fault plans are process-global; when the feature is compiled in, an
    /// armed `SignalDrop` site from a parallel test would suppress the
    /// publishes these tests wait on. Serialize against plan installers.
    fn shield() -> Option<std::sync::MutexGuard<'static, ()>> {
        #[cfg(feature = "fault-injection")]
        return Some(crate::faults::test_lock());
        #[cfg(not(feature = "fault-injection"))]
        None
    }

    #[test]
    fn cross_thread_ping_publishes() {
        let _shield = shield();
        let p: &'static CounterPublisher = Box::leak(Box::new(CounterPublisher::new()));
        let handle = register_publisher(p);
        let stop = Arc::new(StdAtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let stop2 = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let guard = Registry::global().register_current();
            tx.send(guard.gtid()).unwrap();
            while !stop2.load(Ordering::Acquire) {
                core::hint::spin_loop();
            }
        });
        let gtid = rx.recv().unwrap();
        let before = p.hits[gtid].load(Ordering::Acquire);
        assert_eq!(ping_gtid(gtid), PingOutcome::Sent);
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while p.hits[gtid].load(Ordering::Acquire) == before {
            assert!(
                std::time::Instant::now() < deadline,
                "ping was not serviced within 5s"
            );
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Release);
        worker.join().unwrap();
        handle.deactivate();
    }

    #[test]
    fn repeated_pings_coalesce_monotonically() {
        let _shield = shield();
        let p: &'static CounterPublisher = Box::leak(Box::new(CounterPublisher::new()));
        let handle = register_publisher(p);
        let stop = Arc::new(StdAtomicBool::new(false));
        let (tx, rx) = std::sync::mpsc::channel();
        let stop2 = Arc::clone(&stop);
        let worker = std::thread::spawn(move || {
            let guard = Registry::global().register_current();
            tx.send(guard.gtid()).unwrap();
            while !stop2.load(Ordering::Acquire) {
                std::thread::yield_now();
            }
        });
        let gtid = rx.recv().unwrap();
        let mut last = p.hits[gtid].load(Ordering::Acquire);
        for _ in 0..16 {
            let before = last;
            assert_eq!(ping_gtid(gtid), PingOutcome::Sent);
            let deadline = std::time::Instant::now() + Duration::from_secs(5);
            loop {
                let now = p.hits[gtid].load(Ordering::Acquire);
                if now > before {
                    last = now;
                    break;
                }
                assert!(std::time::Instant::now() < deadline);
                std::thread::yield_now();
            }
        }
        stop.store(true, Ordering::Release);
        worker.join().unwrap();
        handle.deactivate();
    }
}
