//! The twelve reclamation schemes.
//!
//! | Module | Scheme | Paper role |
//! |--------|--------|------------|
//! | [`nr`] | `NR` — no reclamation (leak) | baseline floor |
//! | [`epoch`] | `EBR` — RCU-style epochs (Alg. 6; [`epoch::Ebr`]) | fast, not robust |
//! | [`hazard`] | `HP` — classic hazard pointers ([`hazard::HazardPtr`]) | robust, fence per read |
//! | [`hazard`] | `HPAsym` — membarrier/Folly-style HP ([`hazard::HazardPtrAsym`]) | baseline |
//! | [`hazard`] | **`HazardPtrPOP`** (Alg. 1–2; [`hazard::HazardPtrPop`]) | contribution |
//! | [`hazard`] | `HE` — hazard eras (Alg. 4; [`hazard::HazardEra`]) | baseline |
//! | [`hazard`] | **`HazardEraPOP`** (Alg. 5; [`hazard::HazardEraPop`]) | contribution |
//! | [`epoch`] | **`EpochPOP`** (Alg. 3; [`epoch::EpochPop`]) | contribution |
//! | [`epoch`] | `IBR` — 2GE interval-based ([`epoch::Ibr`]) | baseline |
//! | [`nbr`] | `NBR+` — neutralization (cooperative) | baseline |
//! | [`hyaline`] | `Hyaline-1` — Crystalline-family batch refcounting | appendix baseline |
//! | [`epoch`] | `VBR` — version-based, self-aborting laggards ([`epoch::Vbr`]) | allocator-integration scheme |
//!
//! The five [`hazard`] schemes are one engine, `Hazard<Kind, Publish>`:
//! pointer or era reservations × the eager `Fence`, publish-on-ping `Ping`
//! or asymmetric-barrier `Asym` publisher. The four [`epoch`] schemes are
//! one engine, `Epoch<Laggard>`: one announcement, clock and pass,
//! differing only in what a reader that stops advancing costs — nothing
//! (`Wait`), a ping and a pointer-reservation pass (`Ping`), its own
//! restart (`Abort`), or only the nodes its interval meets (`Interval`).
//! [`nbr`] shares publish-on-ping's peer table, wait and reaper.

pub mod epoch;
pub mod hazard;
pub mod hyaline;
pub mod nbr;
pub mod nr;
