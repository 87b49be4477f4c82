//! # `pop-core` — Publish-on-Ping safe memory reclamation
//!
//! Reproduction of the reclamation schemes from *"Publish on Ping: A Better
//! Way to Publish Reservations in Memory Reclamation for Concurrent Data
//! Structures"* (Singh & Brown, PPoPP 2025), plus every baseline the paper
//! evaluates against.
//!
//! ## Model
//!
//! * A **domain** ([`Smr`] instance) manages reclamation for one data
//!   structure (or a group sharing garbage).
//! * Threads [`Smr::register`] for a domain-local `tid` and bracket each
//!   operation with [`Smr::begin_op`]/[`Smr::end_op`].
//! * Every shared-pointer read goes through [`Smr::protect`] (the paper's
//!   `read()`), every unlinked node through [`Smr::retire`].
//! * Reclaimable node types embed a [`Header`] first field (`#[repr(C)]`)
//!   and implement the [`HasHeader`] marker.
//!
//! ## Schemes
//!
//! See [`schemes`] for the full table. The paper's contributions are
//! [`schemes::hp_pop::HazardPtrPop`], [`schemes::he_pop::HazardEraPop`] and
//! [`schemes::epoch_pop::EpochPop`].
//!
//! ## Memory-ordering rationale
//!
//! Two orderings carry the whole crate; everything else is standard
//! acquire/release or relaxed counting.
//!
//! **The two-SeqCst-fence elision pairing.** Publish-on-ping readers
//! record reservations with *relaxed* stores — the paper's headline
//! saving — which is only sound because the reclaimer interrupts the
//! reader (POSIX signal) before trusting its published set, and signal
//! delivery orders the handler after every store the reader issued. The
//! quiescent-thread ping *filter* (skipping the signal for idle peers)
//! punches a hole in that argument, so it is re-sealed with a classic
//! Dekker pairing of SeqCst fences: `begin_op` bumps the thread's
//! activity word and issues a **SeqCst fence** before its first
//! data-structure read; the reclaimer unlinks, issues its own **SeqCst
//! fence**, then reads the activity word. In every interleaving the
//! reclaimer either observes the reader active (and pings it — the
//! signal path takes over) or the reader's subsequent protected reads
//! observe the unlink (and retry) — never both misses on a non-TSO
//! machine. `end_op` is a plain release bump: quiescence may be observed
//! late, which only costs an extra ping, never a wrong elision.
//!
//! **The futex Dekker.** A publish wait that exhausts its spin budget
//! (`SmrConfig::publish_spin`) parks on a per-thread 32-bit publish word
//! (`pop_runtime::futex`, which yields instead off Linux). The waiter
//! *announces itself*
//! (waiter-count increment), re-checks the publish word, then
//! `futex(FUTEX_WAIT)`s; the publisher (signal handler / restart ack)
//! bumps the publish word, executes the matching **SeqCst** edge, and
//! calls `FUTEX_WAKE` only when the waiter count is non-zero. The
//! SeqCst pairing makes "waiter announced, publisher saw zero waiters"
//! and "publisher bumped, waiter saw the old word" mutually exclusive,
//! so the wake is never lost; the wait's timeout is a pure liveness
//! backstop for peers that exit without publishing. The same shape
//! covers NBR's phase-2 park (`end_op`/`begin_write`/`unregister` run
//! the waiter-flag check — one shared load when nobody waits).
//!
//! ## Adaptivity
//!
//! The [`controller`] module closes the feedback loop from sweep
//! outcomes to the epoch cadence: barren passes decay it, and the first
//! freeing sweep resets it. `SmrConfig::adaptive` (env `POP_ADAPTIVE`)
//! turns the loop off, restoring the static cadence the CI fallback matrix
//! pins. The retire pipeline itself has no adaptive layout: fixed
//! slab-routed fill bins, one range test per block and one per-node test
//! for the blocks it leaves undecided.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

mod base;
pub mod config;
pub mod controller;
pub mod header;
mod pop_shared;
pub mod pressure;
pub mod schemes;
pub mod slab;
pub mod smr;
pub mod stats;

/// Internals re-exported for property tests, benches and diagnostics. Not
/// a stable API surface.
#[doc(hidden)]
pub mod testing {
    pub use crate::base::{era_range_reserved, SweepBench};
}

pub use config::{PublishMode, SmrConfig};
pub use header::{unmark_word, HasHeader, Header, Retired, RETIRE_BATCH_CAP};
pub use pressure::{PressureGauge, PressureRung};
pub use smr::{
    alloc_node, as_header, dealloc_node_unpublished, free_node_raw, protect_infallible,
    retire_node, OpGuard, ReadResult, Registration, Restart, Smr,
};
pub use stats::{DomainStats, ShardStats, StatsSnapshot};

// Convenience aliases matching the paper's plot labels.
pub use schemes::ebr::Ebr;
pub use schemes::epoch_pop::EpochPop;
pub use schemes::he::HazardEra;
pub use schemes::he_pop::HazardEraPop;
pub use schemes::hp::HazardPtr;
pub use schemes::hp_asym::HazardPtrAsym;
pub use schemes::hp_pop::HazardPtrPop;
pub use schemes::hyaline::Hyaline;
pub use schemes::ibr::Ibr;
pub use schemes::nbr::NbrPlus;
pub use schemes::nr::NoReclaim;
pub use schemes::vbr::Vbr;
