//! Garbage bounds as executable claims: a reader parks inside an operation
//! holding its reservation while tid 0 churns an `HmList` for a fixed
//! count of operations, with the pressure ladder off (soft watermark 0), so
//! only the schemes' own reclamation rule bounds the backlog. Every
//! operation polls `unreclaimed_nodes()`.
//!
//! * HE, HazardEraPOP and IBR: at most `reclaim_freq` plus one block plus
//!   the list's size. The era (IBR: the epoch) moves at every seal, so a
//!   pass keeps only what was retired since the last seal under the
//!   reclaimer's own reservation; the parked reader's era (interval) pins
//!   at most the nodes alive at that era.
//! * HP, HPAsym, HazardPtrPOP and EpochPOP: at most `reclaim_freq` plus
//!   the list's size. A pointer pass frees everything but the reserved
//!   nodes; EpochPOP escalates to one on the seal at which its epoch pass
//!   leaves `reclaim_freq` nodes behind the parked reader's epoch.
//!
//! Both carry `FILL_BINS × retire_batch` nodes of slack for seal
//! granularity.

use std::ptr::null_mut;
use std::sync::atomic::AtomicPtr;
use std::sync::mpsc;
use std::sync::Arc;

use pop::ds::hml::HmList;
use pop::ds::ConcurrentMap;
use pop::smr::{
    EpochPop, HazardEra, HazardEraPop, HazardPtr, HazardPtrAsym, HazardPtrPop, Ibr, PublishMode,
    Smr, SmrConfig,
};

const RECLAIM_FREQ: usize = 1024;
/// Keys in the list: the even ones stay, tid 0 churns the odd ones.
const KEYS: u64 = 128;
/// Churn operations (an insert and a remove each): about 40 pass periods.
const OPS: u64 = 40 * RECLAIM_FREQ as u64;
/// `pop-core`'s fixed fill-bin count per retire list.
const FILL_BINS: usize = 8;

/// Runs the churn against a parked reader; returns the largest backlog
/// seen and the domain's config.
fn peak_with_parked_reader<S: Smr>(mode: PublishMode) -> (u64, SmrConfig) {
    let cfg = SmrConfig::for_tests(2)
        .with_reclaim_freq(RECLAIM_FREQ)
        .with_pressure_watermarks(0, 0, 0)
        .with_publish_mode(mode);
    let smr = S::new(cfg.clone());
    let set = Arc::new(HmList::new(Arc::clone(&smr)));
    let reg0 = smr.register(0);
    for k in (0..KEYS).step_by(2) {
        set.insert(0, k, k);
    }
    let (ready_tx, ready_rx) = mpsc::channel();
    let (go_tx, go_rx) = mpsc::channel::<()>();
    let reader = {
        let smr = Arc::clone(&smr);
        std::thread::spawn(move || {
            let reg = smr.register(1);
            let src = AtomicPtr::<u64>::new(null_mut());
            smr.begin_op(1);
            smr.protect(1, 0, &src).unwrap();
            ready_tx.send(()).unwrap();
            go_rx.recv().unwrap(); // parked: pings still land
            smr.end_op(1);
            drop(reg);
        })
    };
    ready_rx.recv().unwrap();
    let mut peak = 0u64;
    for i in 0..OPS {
        let k = (2 * i + 1) % KEYS;
        set.insert(0, k, i);
        set.remove(0, k);
        peak = peak.max(smr.stats().unreclaimed_nodes());
    }
    go_tx.send(()).unwrap();
    reader.join().unwrap();
    drop(reg0);
    (peak, cfg)
}

/// Seal-granularity slack: the list's size plus a block per fill bin.
fn slack(cfg: &SmrConfig) -> u64 {
    KEYS + (FILL_BINS * cfg.effective_batch()) as u64
}

fn assert_era_bound<S: Smr>(mode: PublishMode) {
    let (peak, cfg) = peak_with_parked_reader::<S>(mode);
    let bound = (cfg.reclaim_freq + cfg.effective_batch()) as u64 + slack(&cfg);
    assert!(
        peak <= bound,
        "{} ({mode:?}): {peak} unreclaimed, over the era bound {bound}",
        S::NAME
    );
}

fn assert_list_bound<S: Smr>(mode: PublishMode) {
    let (peak, cfg) = peak_with_parked_reader::<S>(mode);
    let bound = cfg.reclaim_freq as u64 + slack(&cfg);
    assert!(
        peak <= bound,
        "{} ({mode:?}): {peak} unreclaimed, over the list bound {bound}",
        S::NAME
    );
}

#[test]
fn hazard_era_holds_the_era_bound() {
    assert_era_bound::<HazardEra>(PublishMode::Futex);
}

#[test]
fn hazard_era_pop_holds_the_era_bound_futex() {
    assert_era_bound::<HazardEraPop>(PublishMode::Futex);
}

#[test]
fn hazard_era_pop_holds_the_era_bound_membarrier() {
    assert_era_bound::<HazardEraPop>(PublishMode::Membarrier);
}

#[test]
fn ibr_holds_the_era_bound() {
    assert_era_bound::<Ibr>(PublishMode::Futex);
}

#[test]
fn hazard_ptr_holds_the_list_bound() {
    assert_list_bound::<HazardPtr>(PublishMode::Futex);
}

#[test]
fn hazard_ptr_asym_holds_the_list_bound() {
    assert_list_bound::<HazardPtrAsym>(PublishMode::Futex);
}

#[test]
fn hazard_ptr_pop_holds_the_list_bound_futex() {
    assert_list_bound::<HazardPtrPop>(PublishMode::Futex);
}

#[test]
fn hazard_ptr_pop_holds_the_list_bound_membarrier() {
    assert_list_bound::<HazardPtrPop>(PublishMode::Membarrier);
}

#[test]
fn epoch_pop_holds_its_escalation_bound_futex() {
    assert_list_bound::<EpochPop>(PublishMode::Futex);
}

#[test]
fn epoch_pop_holds_its_escalation_bound_membarrier() {
    assert_list_bound::<EpochPop>(PublishMode::Membarrier);
}
