//! Linux `membarrier(2)` asymmetric process-wide memory barrier — the
//! runtime's expedited-barrier service.
//!
//! Readers publish reservations with plain (relaxed) stores and the
//! StoreLoad fence moves to the reclaimer, which executes a *process-wide*
//! barrier before scanning. On mainline Linux this is
//! `membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED)`, which IPIs every CPU
//! running a thread of this process. Its one caller is `pop-core`'s
//! membarrier publish mode — the POP schemes' `PublishMode::Membarrier`
//! fast path, which the `HPAsym` baseline always runs — so there is exactly
//! one availability probe and one registration per process.
//!
//! Availability varies (the paper §2.1.2 notes the same): the syscall may
//! be missing or restricted in sandboxes, seccomp-filtered containers and
//! old kernels. [`is_available`] answers the per-process probe (cached
//! after the first call, registration included) and [`heavy`] reports
//! per-call failure so callers can fall back to the signal-driven barrier
//! built from the ping machinery (liburcu's "signal flavor" — precisely
//! what `HazardPtrPOP`'s signal path already provides; a failed barrier
//! downgrades its domain to that path for good).
//!
//! Fault injection: [`crate::faults::FaultSite::MembarrierUnavailable`]
//! makes the probe answer "unsupported" (checked *outside* the cache so a
//! plan installed mid-process still bites), and
//! [`crate::faults::FaultSite::MembarrierFail`] fails a single heavy
//! barrier, exercising callers' mid-pass downgrade.

use std::sync::OnceLock;

const MEMBARRIER_CMD_QUERY: libc::c_long = 0;
const MEMBARRIER_CMD_PRIVATE_EXPEDITED: libc::c_long = 1 << 3;
const MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED: libc::c_long = 1 << 4;

#[cfg(target_os = "linux")]
fn sys_membarrier(cmd: libc::c_long) -> libc::c_long {
    // SAFETY: membarrier takes (cmd, flags, cpu_id); flags=0 selects the
    // process-wide variant and has no memory-safety implications.
    unsafe {
        libc::syscall(
            libc::SYS_membarrier,
            cmd,
            0 as libc::c_long,
            0 as libc::c_long,
        )
    }
}

#[cfg(not(target_os = "linux"))]
fn sys_membarrier(_cmd: libc::c_long) -> libc::c_long {
    -1
}

/// The kernel-truth half of the probe, cached for the process lifetime
/// (registration is a per-process one-shot and must not repeat).
fn probe() -> bool {
    static AVAILABLE: OnceLock<bool> = OnceLock::new();
    *AVAILABLE.get_or_init(|| {
        let supported = sys_membarrier(MEMBARRIER_CMD_QUERY);
        if supported < 0 || supported & MEMBARRIER_CMD_PRIVATE_EXPEDITED == 0 {
            return false;
        }
        // Registration is required before the expedited command may be used.
        sys_membarrier(MEMBARRIER_CMD_REGISTER_PRIVATE_EXPEDITED) == 0
    })
}

/// Returns whether `PRIVATE_EXPEDITED` membarrier is usable, registering
/// the process on first call. The kernel answer is cached for the process
/// lifetime; the [`MembarrierUnavailable`](crate::faults::FaultSite)
/// fault-injection site is consulted on every call, so chaos plans can
/// model a seccomp denial without poisoning the cache for other tests.
pub fn is_available() -> bool {
    if crate::faults::fire(crate::faults::FaultSite::MembarrierUnavailable) {
        return false;
    }
    probe()
}

/// Executes the heavyweight side of the asymmetric barrier.
///
/// On success, every thread of this process has executed a full memory
/// barrier between the caller's preceding and following memory accesses —
/// i.e. all of their prior relaxed stores are visible to the caller.
/// Returns `false` when the syscall is unavailable or fails (including an
/// injected [`MembarrierFail`](crate::faults::FaultSite)); callers must
/// then run a signal-driven barrier for this pass instead.
pub fn heavy() -> bool {
    if !is_available() {
        return false;
    }
    if crate::faults::fire(crate::faults::FaultSite::MembarrierFail) {
        return false;
    }
    sys_membarrier(MEMBARRIER_CMD_PRIVATE_EXPEDITED) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn query_is_stable() {
        // Whatever the sandbox supports, the cached answer must not flap.
        let a = is_available();
        let b = is_available();
        assert_eq!(a, b);
    }

    #[test]
    fn heavy_matches_availability() {
        if is_available() {
            assert!(heavy(), "available membarrier must execute successfully");
        } else {
            assert!(!heavy(), "unavailable membarrier must report failure");
        }
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_unavailability_is_transient() {
        use crate::faults::{self, FaultPlan, FaultSite};
        let _g = faults::test_lock();
        let baseline = probe();
        faults::install(FaultPlan::default().with_rate(FaultSite::MembarrierUnavailable, 1));
        assert!(!is_available(), "armed probe fault must report unsupported");
        assert!(!heavy(), "heavy follows the (faulted) probe");
        faults::clear();
        assert_eq!(is_available(), baseline, "cache survives the fault");
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn injected_heavy_failure_is_one_shot() {
        use crate::faults::{self, FaultPlan, FaultSite};
        let _g = faults::test_lock();
        if !probe() {
            return; // nothing to fail on hosts without membarrier
        }
        faults::install(FaultPlan::default().with_one_shot(FaultSite::MembarrierFail, 1));
        assert!(!heavy(), "first heavy barrier fails by injection");
        assert!(heavy(), "subsequent barriers succeed again");
        faults::clear();
    }
}
