//! Thin, async-signal-safe `futex(2)` wrappers.
//!
//! The reclamation schemes do not park: their publish wait spins on a
//! peer's publish counter, since a pinged peer answers within a ping round
//! trip and a parked reclaimer would stretch that to a wake-up latency.
//! These wrappers stay for callers that block on a 32-bit word, such as
//! popbench's calibration, which times a futex round trip.
//!
//! Both operations are single syscalls on pre-existing atomics — no
//! allocation, no locks — so [`wake_all`] is safe to call from the ping
//! signal handler. On non-Linux targets the module degrades to the
//! portable behavior: [`supported`] is `false`, [`wait_timeout`] yields,
//! and [`wake_all`] is a no-op, so callers can use one code path.
//!
//! All waits take a timeout: the waiter's exit condition may become true
//! through a path that never wakes the word (e.g. a peer deregistering
//! after the waiter parked, or signal delivery failing), so the timeout —
//! not the wake — is the liveness backstop. The [`WaitOutcome`] tells the
//! caller's re-check loop whether the timeout actually elapsed
//! ([`WaitOutcome::TimedOut`]) or the return was a wake / `EINTR` /
//! `EAGAIN` ([`WaitOutcome::Woken`]) — so a spurious wake is never
//! miscounted as waited-out time by deadline accounting.

use core::sync::atomic::AtomicU32;

use crate::faults::{self, FaultSite};

/// Why a [`wait_timeout`] returned.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WaitOutcome {
    /// Woken, interrupted, or the word already differed (`EAGAIN`) — the
    /// caller should re-check its predicate; no waited time is charged.
    Woken,
    /// The full timeout elapsed with no wake (`ETIMEDOUT`).
    TimedOut,
}

/// Whether parking on a futex is available on this target.
#[inline]
pub fn supported() -> bool {
    cfg!(target_os = "linux")
}

/// Parks the calling thread until `word != expected`, a wake arrives, the
/// timeout elapses, or a signal interrupts — whichever happens first.
/// Spurious returns are expected; callers re-check their condition and use
/// the [`WaitOutcome`] to decide whether to charge the wait against a
/// deadline.
#[cfg(target_os = "linux")]
pub fn wait_timeout(word: &AtomicU32, expected: u32, timeout_ns: u64) -> WaitOutcome {
    // Fault site: the kernel is allowed to return spuriously at any time;
    // this makes it do so relentlessly.
    if faults::fire(FaultSite::FutexSpuriousWake) {
        return WaitOutcome::Woken;
    }
    let ts = libc::timespec {
        tv_sec: (timeout_ns / 1_000_000_000) as libc::c_long,
        tv_nsec: (timeout_ns % 1_000_000_000) as libc::c_long,
    };
    // SAFETY: `word` outlives the call and is 4-byte aligned (AtomicU32);
    // the kernel only reads the timespec.
    let rc = unsafe {
        libc::syscall(
            libc::SYS_futex,
            word.as_ptr(),
            libc::FUTEX_WAIT | libc::FUTEX_PRIVATE_FLAG,
            expected,
            &ts as *const libc::timespec,
        )
    };
    if rc == 0 {
        return WaitOutcome::Woken;
    }
    // SAFETY: `__errno_location` returns this thread's errno slot, valid for
    // the thread's lifetime.
    match unsafe { *libc::__errno_location() } {
        libc::ETIMEDOUT => WaitOutcome::TimedOut,
        // EINTR (signal), EAGAIN (word already changed) and anything else:
        // the predicate may have become true — re-check, charge nothing.
        _ => WaitOutcome::Woken,
    }
}

/// Portable fallback: donate the quantum instead of parking. Reported as
/// [`WaitOutcome::Woken`] — a yield consumes no measurable deadline, so
/// callers fall through to their wall-clock check.
#[cfg(not(target_os = "linux"))]
pub fn wait_timeout(_word: &AtomicU32, _expected: u32, _timeout_ns: u64) -> WaitOutcome {
    if faults::fire(FaultSite::FutexSpuriousWake) {
        return WaitOutcome::Woken;
    }
    std::thread::yield_now();
    WaitOutcome::Woken
}

/// Wakes every thread parked on `word`. Async-signal-safe (one syscall).
#[cfg(target_os = "linux")]
pub fn wake_all(word: &AtomicU32) {
    // Fault site: a lost wake — waiters must survive on their timeout
    // backstop alone.
    if faults::fire(FaultSite::FutexLostWake) {
        return;
    }
    // SAFETY: `word` outlives the call; FUTEX_WAKE reads no user memory
    // beyond the address itself.
    unsafe {
        libc::syscall(
            libc::SYS_futex,
            word.as_ptr(),
            libc::FUTEX_WAKE | libc::FUTEX_PRIVATE_FLAG,
            i32::MAX,
        );
    }
}

/// Portable fallback: nothing is ever parked, so nothing to wake.
#[cfg(not(target_os = "linux"))]
pub fn wake_all(word: &AtomicU32) {
    let _ = faults::fire(FaultSite::FutexLostWake);
    let _ = word;
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::Ordering;
    use std::sync::Arc;
    use std::time::{Duration, Instant};

    /// Fault plans are process-global; when the feature is compiled in,
    /// serialize outcome-sensitive tests against tests that install plans.
    fn shield() -> Option<std::sync::MutexGuard<'static, ()>> {
        #[cfg(feature = "fault-injection")]
        return Some(crate::faults::test_lock());
        #[cfg(not(feature = "fault-injection"))]
        None
    }

    #[test]
    fn wait_returns_immediately_on_stale_expected() {
        let _shield = shield();
        // Word already differs from `expected`: FUTEX_WAIT must fail with
        // EAGAIN instead of sleeping out the full timeout — and EAGAIN is
        // not a timeout, so no waited time may be charged.
        let word = AtomicU32::new(7);
        let t0 = Instant::now();
        let out = wait_timeout(&word, 3, 200_000_000);
        assert!(
            t0.elapsed() < Duration::from_millis(150),
            "stale expected value must not park"
        );
        if supported() {
            assert_eq!(out, WaitOutcome::Woken, "EAGAIN is not a timeout");
        }
    }

    #[test]
    fn wake_unparks_a_waiter_before_timeout() {
        let _shield = shield();
        let word = Arc::new(AtomicU32::new(0));
        let t0 = Instant::now();
        let waiter = std::thread::spawn({
            let word = Arc::clone(&word);
            move || {
                while word.load(Ordering::Acquire) == 0 {
                    wait_timeout(&word, 0, 2_000_000_000);
                }
            }
        });
        std::thread::sleep(Duration::from_millis(20));
        word.store(1, Ordering::Release);
        wake_all(&word);
        waiter.join().unwrap();
        assert!(
            t0.elapsed() < Duration::from_millis(1500),
            "wake must beat the 2s timeout"
        );
    }

    #[test]
    fn timeout_is_a_liveness_backstop_and_reports_timed_out() {
        let _shield = shield();
        // Nobody ever wakes the word; the wait must still return, and on
        // Linux must say the timeout elapsed.
        let word = AtomicU32::new(0);
        let t0 = Instant::now();
        let out = wait_timeout(&word, 0, 30_000_000);
        assert!(
            t0.elapsed() < Duration::from_secs(2),
            "timed wait must return without a wake"
        );
        if supported() {
            assert_eq!(out, WaitOutcome::TimedOut);
        }
    }

    /// Satellite coverage: the two fault hooks drive the two outcome paths.
    /// A spurious wake returns `Woken` without consuming the timeout; a
    /// lost wake leaves the waiter to ride out the timeout to `TimedOut`.
    #[cfg(feature = "fault-injection")]
    #[test]
    fn fault_hooks_distinguish_spurious_wake_from_timeout() {
        use crate::faults::{install, FaultPlan};
        // Installs process-global plans: hold the shared lock for the whole
        // test so parallel outcome-sensitive tests never see an armed site.
        let _shield = crate::faults::test_lock();
        let word = AtomicU32::new(0);

        install(FaultPlan::default().with_rate(FaultSite::FutexSpuriousWake, 1));
        let t0 = Instant::now();
        let out = wait_timeout(&word, 0, 2_000_000_000);
        assert_eq!(out, WaitOutcome::Woken, "injected spurious wake");
        assert!(
            t0.elapsed() < Duration::from_millis(500),
            "spurious wake must not consume the timeout"
        );
        assert!(faults::injected(FaultSite::FutexSpuriousWake) >= 1);

        install(FaultPlan::default().with_rate(FaultSite::FutexLostWake, 1));
        wake_all(&word); // swallowed
        assert!(faults::injected(FaultSite::FutexLostWake) >= 1);
        if supported() {
            let out = wait_timeout(&word, 0, 20_000_000);
            assert_eq!(
                out,
                WaitOutcome::TimedOut,
                "with the wake lost, only the timeout can end the wait"
            );
        }
        faults::clear();
    }
}
