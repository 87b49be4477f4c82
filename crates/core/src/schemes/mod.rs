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
//! Every scheme but [`nr`] retires and reclaims through one pass driver
//! (`crate::pass`, which tabulates each engine's hooks).
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

/// Shared by the hazard and epoch engines' tests: tid 0 runs operations
/// that each reserve (`begin_op`, `protect`) and retire one node, for eight
/// pass periods. After every retire whose pass freed anything, at most one
/// block plus the fill bins open before it may stay retired: every seal
/// moved the clock, so only what was retired since the last seal shares
/// the reclaimer's own reservation.
#[cfg(test)]
pub(crate) fn assert_own_pass_keeps_one_block<S: crate::Smr>(cfg: crate::SmrConfig) {
    use crate::header::{HasHeader, Header};
    use crate::smr::{alloc_node, retire_node};
    use core::sync::atomic::AtomicPtr;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    let batch = cfg.effective_batch() as u64;
    let freq = cfg.reclaim_freq as u64;
    let smr = S::new(cfg);
    let reg = smr.register(0);
    let src = AtomicPtr::<N>::new(core::ptr::null_mut());
    let mut passes = 0;
    for i in 0..8 * freq {
        let before = smr.stats().snapshot();
        // A seal counts its block's retires: the rest sit in open bins.
        let open = i - before.retired_nodes;
        smr.begin_op(0);
        let _ = smr.protect(0, 0, &src);
        let hdr = Header::new(smr.current_era(), core::mem::size_of::<N>());
        // SAFETY: the node was never published.
        unsafe { retire_node(&*smr, 0, alloc_node(&*smr, 0, N { hdr, v: i })) };
        smr.end_op(0);
        let after = smr.stats().snapshot();
        if after.freed_nodes > before.freed_nodes {
            passes += 1;
            let kept = after.unreclaimed_nodes();
            assert!(
                kept <= batch + open,
                "{}: pass {passes} kept {kept} (one block is {batch}, {open} were in open bins)",
                S::NAME
            );
        }
    }
    assert!(
        passes >= 7,
        "{}: only {passes} passes freed anything",
        S::NAME
    );
    smr.flush(0);
    assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0, "{}", S::NAME);
    drop(reg);
}
