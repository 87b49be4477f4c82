//! The twelve reclamation schemes.
//!
//! | Module | Scheme | Paper role |
//! |--------|--------|------------|
//! | [`nr`] | `NR` — no reclamation (leak) | baseline floor |
//! | [`ebr`] | `EBR` — RCU-style epochs (Alg. 6) | fast, not robust |
//! | [`hazard`] | `HP` — classic hazard pointers ([`hazard::HazardPtr`]) | robust, fence per read |
//! | [`hazard`] | `HPAsym` — membarrier/Folly-style HP ([`hazard::HazardPtrAsym`]) | baseline |
//! | [`hazard`] | **`HazardPtrPOP`** (Alg. 1–2; [`hazard::HazardPtrPop`]) | contribution |
//! | [`hazard`] | `HE` — hazard eras (Alg. 4; [`hazard::HazardEra`]) | baseline |
//! | [`hazard`] | **`HazardEraPOP`** (Alg. 5; [`hazard::HazardEraPop`]) | contribution |
//! | [`epoch_pop`] | **`EpochPOP`** (Alg. 3) | contribution |
//! | [`ibr`] | `IBR` — 2GE interval-based | baseline |
//! | [`nbr`] | `NBR+` — neutralization (cooperative) | baseline |
//! | [`hyaline`] | `Hyaline-1` — Crystalline-family batch refcounting | appendix baseline |
//! | [`vbr`] | `VBR` — version-based, owned slab arenas (PR 10) | allocator-integration scheme |
//!
//! The five [`hazard`] schemes are one engine, `Hazard<Kind, Publish>`:
//! pointer or era reservations × the eager `Fence`, publish-on-ping `Ping`
//! or asymmetric-barrier `Asym` publisher.

pub mod ebr;
pub mod epoch_pop;
pub mod hazard;
pub mod hyaline;
pub mod ibr;
pub mod nbr;
pub mod nr;
pub mod vbr;
