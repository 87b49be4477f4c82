//! # `pop` — Publish-on-Ping safe memory reclamation
//!
//! This crate is the facade over a full reproduction of *"Publish on Ping: A
//! Better Way to Publish Reservations in Memory Reclamation for Concurrent
//! Data Structures"* (Singh & Brown, PPoPP 2025).
//!
//! The stack consists of:
//!
//! * [`runtime`] — process-global thread registry, POSIX-signal "ping"
//!   machinery, and the asymmetric process-wide memory barrier.
//! * [`smr`] — the [`smr::Smr`] trait and twelve reclamation schemes:
//!   the paper's **HazardPtrPOP**, **HazardEraPOP** and **EpochPOP**, plus
//!   the baselines HP, HPAsym, HE, EBR, IBR, NBR+, a Crystalline-family
//!   batch reference counter, leaky NR, and VBR (version-based
//!   reclamation over the owned slab arenas). HP, HPAsym, HazardPtrPOP, HE
//!   and HazardEraPOP are one hazard engine (`smr::schemes::hazard`) with
//!   pointer or era reservations and an eager, asymmetric-barrier or
//!   publish-on-ping publisher; EBR, EpochPOP, VBR and IBR are one epoch
//!   engine (`smr::schemes::epoch`) that differs only in what a reader that
//!   stops advancing costs.
//! * [`ds`] — seven concurrent set/map data structures written once
//!   against the `Smr` trait: Harris-Michael list, lazy list, hash table,
//!   lock-based external BST, (a,b)-tree, lock-free skip list and the
//!   Natarajan-Mittal lock-free external BST.
//! * [`workload`] — the timed multithreaded benchmark engine used by the
//!   `pop-bench` figure harness.
//!
//! ## Quickstart
//!
//! ```
//! use pop::smr::{HazardPtrPop, Smr, SmrConfig};
//! use pop::ds::{hml::HmList, ConcurrentMap};
//! use std::sync::Arc;
//!
//! let smr = HazardPtrPop::new(SmrConfig::for_threads(2));
//! let list = Arc::new(HmList::new(Arc::clone(&smr)));
//! let handles: Vec<_> = (0..2)
//!     .map(|tid| {
//!         let list = Arc::clone(&list);
//!         std::thread::spawn(move || {
//!             let _reg = list.smr().register(tid);
//!             for k in 0..100u64 {
//!                 list.insert(tid, k * 2 + tid as u64, k);
//!             }
//!             (0..200u64).filter(|&k| list.contains(tid, k)).count()
//!         })
//!     })
//!     .collect();
//! for h in handles {
//!     h.join().unwrap();
//! }
//! ```

pub use pop_core as smr;
pub use pop_ds as ds;
pub use pop_runtime as runtime;
pub use pop_workload as workload;
