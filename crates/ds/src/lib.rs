//! # `pop-ds` — concurrent set/map data structures over generic SMR
//!
//! The data structures the paper benchmarks (§5), each written once
//! against [`pop_core::Smr`] so every reclamation scheme plugs in
//! unchanged — the "drop-in replacement" property of publish-on-ping:
//!
//! * [`hml`] — Harris-Michael lock-free linked list (`HML`).
//! * [`lazy_list`] — lazy list with per-node locks (`LL`).
//! * [`hash_map`] — hash table of Harris-Michael buckets (`HMHT`).
//! * [`ext_bst`] — external (leaf-oriented) BST with per-node locks, after
//!   David, Guerraoui & Trigonakis (`DGT`).
//! * [`ab_tree`] — copy-on-write (a,b)-tree, after Brown (`ABT`).
//! * [`skip_list`] — lock-free skip list, Fraser / Herlihy-Shavit style
//!   (`SKL`).
//! * [`nm_tree`] — lock-free external BST, after Natarajan & Mittal
//!   (`NMT`).
//!
//! All structures store `u64` keys and values (as the paper's benchmark
//! does) and implement the common [`ConcurrentMap`] interface used by the
//! workload driver.
//!
//! ## SMR discipline (applies to every structure here)
//!
//! 1. Every shared-pointer chase goes through `Smr::protect_in`, through
//!    the row `Smr::row` resolved once when the traversal started. Its
//!    validation re-read plus the mark-bit convention guarantees the
//!    returned node was reachable when reserved. A structure uses at most
//!    its `SLOTS_REQUIRED` slots, and its constructor panics on a domain
//!    configured with fewer.
//! 2. Every structural CAS (and the `retire` after it) is bracketed by
//!    `begin_write`/`end_write`, passing the nodes the write dereferences.
//! 3. Spin loops that don't call `protect` poll `check_restart`.
//! 4. Nodes are retired exactly once, by the thread whose unlink CAS
//!    succeeded (or under the lock that excluded rivals).

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]
#![cfg_attr(not(test), deny(clippy::undocumented_unsafe_blocks))]

pub mod ab_tree;
pub mod ext_bst;
pub mod hash_map;
pub mod hml;
pub mod lazy_list;
pub mod marked;
pub mod ms_queue;
pub mod nm_tree;
pub mod skip_list;
pub mod treiber_stack;

use pop_core::Smr;
use std::sync::Arc;

/// Key type used throughout (matches the paper's integer-key benchmark).
pub type Key = u64;
/// Value type used throughout.
pub type Value = u64;

/// Panics unless `smr`'s domain has the `required` hazard slots a
/// structure's traversals use: a reservation in a slot past
/// `config().slots` would be one no reclamation pass scans. Every
/// structure's constructor calls it with its `SLOTS_REQUIRED`.
pub(crate) fn assert_slots<S: Smr>(smr: &S, required: usize, ds: &str) {
    let slots = smr.config().slots;
    assert!(
        slots >= required,
        "{ds} needs {required} hazard slots, but its {} domain has {slots}",
        S::NAME
    );
}

/// The interface the benchmark driver uses for every structure.
pub trait ConcurrentMap<S: Smr>: Send + Sync + 'static {
    /// Structure name as used in the paper's plots (e.g. `"HML"`).
    const DS_NAME: &'static str;

    /// Creates an empty structure owning a reference to its SMR domain.
    fn with_domain(smr: Arc<S>) -> Self;

    /// The reclamation domain this structure retires into.
    fn smr(&self) -> &Arc<S>;

    /// Inserts `key → value`; returns `false` if the key already existed.
    fn insert(&self, tid: usize, key: Key, value: Value) -> bool;

    /// Removes `key`; returns `false` if absent.
    fn remove(&self, tid: usize, key: Key) -> bool;

    /// Whether `key` is present.
    fn contains(&self, tid: usize, key: Key) -> bool;

    /// Looks up the value stored under `key`.
    fn get(&self, tid: usize, key: Key) -> Option<Value>;
}
