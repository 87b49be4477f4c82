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
//!   `read()`) — in a traversal, [`Smr::protect_in`] through the [`Row`]
//!   that [`Smr::row`] resolved once on entry — and every unlinked node
//!   through [`Smr::retire`].
//! * Reclaimable node types embed a [`Header`] first field (`#[repr(C)]`)
//!   and implement the [`HasHeader`] marker.
//!
//! ## Schemes
//!
//! See [`schemes`] for the full table. The paper's contributions are
//! [`HazardPtrPop`], [`HazardEraPop`] and [`EpochPop`]. The first two are
//! the publish-on-ping instances of one hazard engine
//! ([`schemes::hazard`]) whose other instances are the baselines
//! [`HazardPtr`], [`HazardPtrAsym`] and [`HazardEra`]. [`EpochPop`] is
//! the ping-and-fall-back instance of one epoch engine
//! ([`schemes::epoch`]) whose other instances are the baselines [`Ebr`]
//! (a laggard pins everything) and [`Vbr`] (a laggard aborts itself).
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
//! **The futex Dekker.** A wait for a peer (POP's publish wait, NBR's
//! phase 2) spins, then parks on the peer's 32-bit futex word, and every
//! state change that can end it wakes the word in one of two
//! `SeqCst`-paired orders — "bump, then check waiters" or "check waiters,
//! then bump" — so no wake is lost. Both pairings are documented once, on
//! the shared peer table (`pop_shared::Peers`, module docs of
//! `pop_shared`).
//!
//! ## Adaptivity
//!
//! The [`controller`] module closes the feedback loop from sweep
//! outcomes to the pass cadence: barren passes decay it, and the first
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
    retire_node, OpGuard, ReadResult, Registration, Restart, Row, Smr,
};
pub use stats::{DomainStats, ShardStats, StatsSnapshot};

// Convenience aliases matching the paper's plot labels.
pub use schemes::epoch::{Ebr, EpochPop, Ibr, Vbr};
pub use schemes::hazard::{HazardEra, HazardEraPop, HazardPtr, HazardPtrAsym, HazardPtrPop};
pub use schemes::hyaline::Hyaline;
pub use schemes::nbr::NbrPlus;
pub use schemes::nr::NoReclaim;
