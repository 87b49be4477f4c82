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
//! One `SeqCst` pairing carries the whole crate; everything else, the
//! publish wait included, is standard acquire/release or relaxed counting.
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
//! **The publish wait.** A wait for a peer (POP's publish wait, NBR's
//! phase 2) spins on the peer's publish counter or progress flags and
//! never parks, so there is no wake to lose: the answering side's plain
//! Release stores (a counter bump, an `end_op`) are all the handshake
//! needs, and an Acquire load ends the wait. It is documented once, on
//! the shared peer table (`pop_shared::Peers`, module docs of
//! `pop_shared`).
//!
//! ## Pacing
//!
//! Nothing outside a scheme paces its reclamation. A pass falls due every
//! `reclaim_freq` retires domain-wide and always runs, and a robust
//! scheme bounds its garbage by its own rule: a ping publishes a stalled
//! reader's reservations, EpochPOP escalates to that ping, and eras and
//! intervals pin only what was alive at the reader's last read. The retire
//! pipeline has no adaptive layout either: fixed slab-routed fill bins,
//! one range test per block and one per-node test for the blocks it
//! leaves undecided.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

mod base;
pub mod config;
pub mod header;
mod pop_shared;
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
