//! # `pop-runtime` — signal machinery for publish-on-ping reclamation
//!
//! This crate is the operating-system substrate beneath the publish-on-ping
//! (POP) reclamation schemes of Singh & Brown (PPoPP 2025):
//!
//! * [`registry`] — a process-global table mapping small integer *global
//!   thread ids* to live `pthread_t` handles, so that a reclaimer can
//!   `pthread_kill` ("ping") every participating thread.
//! * [`signal`] — the process-global `SIGUSR1` handler and the *publisher*
//!   registry. Each POP reclamation domain registers an async-signal-safe
//!   publish callback; when a ping arrives, the handler locates the current
//!   thread's global id and invokes every active publisher for it.
//! * [`membarrier`] — the Linux `membarrier(2)` asymmetric process-wide
//!   memory barrier behind the POP membarrier publish mode, which the
//!   Folly-style `HPAsym` baseline always runs, with runtime feature
//!   detection (sandboxed kernels often lack the syscall; callers fall
//!   back to the signal path).
//! * [`futex`] — `FUTEX_WAIT`/`FUTEX_WAKE` wrappers (`yield_now`
//!   fallback off Linux). No reclamation scheme parks on them: the
//!   publish wait spins, because a pinged peer answers within a ping
//!   round trip. popbench's calibration times a futex round trip with
//!   them.
//! * [`affinity`] — best-effort CPU pinning for benchmark threads.
//! * [`vm`] — slab-aligned anonymous mappings and page release
//!   (`madvise(MADV_DONTNEED)`) for the owned slab arenas in `pop-core`.
//!
//! ## Async-signal-safety contract
//!
//! Everything reachable from the signal handler obeys POSIX
//! async-signal-safety: no allocation, no locks, no TLS access, no panics —
//! only loads/stores of plain atomics, `core::sync::atomic::fence`, and
//! `pthread_self`. The handler saves and restores `errno`.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod affinity;
pub mod faults;
pub mod futex;
pub mod membarrier;
pub mod registry;
pub mod signal;
pub mod vm;

pub use registry::{
    register_current_shared, Liveness, PingOutcome, Registry, SharedRegistration,
    ThreadRegistration, MAX_THREADS,
};
pub use signal::{ping_gtid, publisher_count, register_publisher, Publisher, PublisherHandle};

/// Spin-wait hint re-exported for schemes implementing bounded wait loops.
#[inline]
pub fn spin_hint() {
    core::hint::spin_loop();
}
