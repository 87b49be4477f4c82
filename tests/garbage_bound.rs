//! Garbage bounds as executable claims: a reader parks inside an operation
//! holding its reservation while one or two churners retire from an
//! `HmList` for a fixed count of operations, with the pressure ladder off
//! (soft watermark 0), so only the schemes' own reclamation rule bounds
//! the backlog. Every operation polls `unreclaimed_nodes()`. Two churners
//! (tids 0 and 2) run in lockstep, handing the turn over a channel after
//! every block's worth of retires, so their schedule is fixed.
//!
//! The bounds are domain-wide: passes fall due every `reclaim_freq`
//! retires whichever thread retires them, and each pass takes every
//! sealed block in the domain.
//!
//! * HE, HazardEraPOP and IBR: at most `reclaim_freq` plus one block plus
//!   the list's size. The era (IBR: the epoch) moves at every seal, so a
//!   pass keeps only what was retired since the last seal under the
//!   reclaimer's own reservation; the parked reader's era (interval) pins
//!   at most the nodes alive at that era.
//! * HP, HPAsym, HazardPtrPOP and EpochPOP: at most `reclaim_freq` plus
//!   the list's size. A pointer pass frees everything but the reserved
//!   nodes; EpochPOP escalates to one whenever its triggered epoch pass
//!   keeps `reclaim_freq` nodes behind the parked reader's epoch.
//!
//! Both carry `FILL_BINS × retire_batch` nodes of slack per churner for
//! seal granularity: a churner's open fill bins.

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
fn peak_with_parked_reader<S: Smr>(mode: PublishMode, churners: usize) -> (u64, SmrConfig) {
    assert!(churners == 1 || churners == 2);
    let cfg = SmrConfig::for_tests(churners + 1)
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
    // One turn is one block's worth of retires (a remove retires a node).
    let turn = cfg.effective_batch() as u64;
    let churn = |tid: usize, from: u64, peak: &mut u64| {
        for i in from..from + turn {
            let k = (2 * i + 1) % KEYS;
            set.insert(tid, k, i);
            set.remove(tid, k);
            *peak = (*peak).max(smr.stats().unreclaimed_nodes());
        }
    };
    let mut peak = 0u64;
    std::thread::scope(|scope| {
        // The second churner, tid 2, runs a turn whenever tid 0 hands it
        // the baton and hands it back with its peak.
        let (baton_tx, baton_rx) = mpsc::channel::<Option<u64>>();
        let (back_tx, back_rx) = mpsc::channel::<u64>();
        if churners == 2 {
            let smr = Arc::clone(&smr);
            let churn = &churn;
            scope.spawn(move || {
                let reg = smr.register(2);
                while let Some(from) = baton_rx.recv().unwrap() {
                    let mut peak = 0;
                    churn(2, from, &mut peak);
                    back_tx.send(peak).unwrap();
                }
                drop(reg);
            });
        }
        let mut from = 0;
        while from < OPS {
            churn(0, from, &mut peak);
            from += turn;
            if churners == 2 {
                baton_tx.send(Some(from)).unwrap();
                peak = peak.max(back_rx.recv().unwrap());
                from += turn;
            }
        }
        if churners == 2 {
            baton_tx.send(None).unwrap();
        }
    });
    go_tx.send(()).unwrap();
    reader.join().unwrap();
    drop(reg0);
    (peak, cfg)
}

/// Seal-granularity slack: the list's size plus a block per fill bin of
/// each churner.
fn slack(cfg: &SmrConfig, churners: usize) -> u64 {
    KEYS + (churners * FILL_BINS * cfg.effective_batch()) as u64
}

fn assert_era_bound<S: Smr>(mode: PublishMode, churners: usize) {
    let (peak, cfg) = peak_with_parked_reader::<S>(mode, churners);
    let bound = (cfg.reclaim_freq + cfg.effective_batch()) as u64 + slack(&cfg, churners);
    eprintln!(
        "{} ({mode:?}, {churners} churners): peak {peak}, bound {bound}",
        S::NAME
    );
    assert!(
        peak <= bound,
        "{} ({mode:?}, {churners} churners): {peak} unreclaimed, over the era bound {bound}",
        S::NAME
    );
}

fn assert_list_bound<S: Smr>(mode: PublishMode, churners: usize) {
    let (peak, cfg) = peak_with_parked_reader::<S>(mode, churners);
    let bound = cfg.reclaim_freq as u64 + slack(&cfg, churners);
    eprintln!(
        "{} ({mode:?}, {churners} churners): peak {peak}, bound {bound}",
        S::NAME
    );
    assert!(
        peak <= bound,
        "{} ({mode:?}, {churners} churners): {peak} unreclaimed, over the list bound {bound}",
        S::NAME
    );
}

#[test]
fn hazard_era_holds_the_era_bound() {
    assert_era_bound::<HazardEra>(PublishMode::Futex, 1);
}

#[test]
fn hazard_era_pop_holds_the_era_bound_futex() {
    assert_era_bound::<HazardEraPop>(PublishMode::Futex, 1);
}

#[test]
fn hazard_era_pop_holds_the_era_bound_membarrier() {
    assert_era_bound::<HazardEraPop>(PublishMode::Membarrier, 1);
}

#[test]
fn ibr_holds_the_era_bound() {
    assert_era_bound::<Ibr>(PublishMode::Futex, 1);
}

#[test]
fn hazard_ptr_holds_the_list_bound() {
    assert_list_bound::<HazardPtr>(PublishMode::Futex, 1);
}

#[test]
fn hazard_ptr_asym_holds_the_list_bound() {
    assert_list_bound::<HazardPtrAsym>(PublishMode::Futex, 1);
}

#[test]
fn hazard_ptr_pop_holds_the_list_bound_futex() {
    assert_list_bound::<HazardPtrPop>(PublishMode::Futex, 1);
}

#[test]
fn hazard_ptr_pop_holds_the_list_bound_membarrier() {
    assert_list_bound::<HazardPtrPop>(PublishMode::Membarrier, 1);
}

#[test]
fn epoch_pop_holds_its_escalation_bound_futex() {
    assert_list_bound::<EpochPop>(PublishMode::Futex, 1);
}

#[test]
fn epoch_pop_holds_its_escalation_bound_membarrier() {
    assert_list_bound::<EpochPop>(PublishMode::Membarrier, 1);
}

#[test]
fn hazard_era_holds_the_era_bound_with_two_churners() {
    assert_era_bound::<HazardEra>(PublishMode::Futex, 2);
}

#[test]
fn hazard_era_pop_holds_the_era_bound_with_two_churners_futex() {
    assert_era_bound::<HazardEraPop>(PublishMode::Futex, 2);
}

#[test]
fn hazard_era_pop_holds_the_era_bound_with_two_churners_membarrier() {
    assert_era_bound::<HazardEraPop>(PublishMode::Membarrier, 2);
}

#[test]
fn ibr_holds_the_era_bound_with_two_churners() {
    assert_era_bound::<Ibr>(PublishMode::Futex, 2);
}

#[test]
fn hazard_ptr_holds_the_list_bound_with_two_churners() {
    assert_list_bound::<HazardPtr>(PublishMode::Futex, 2);
}

#[test]
fn hazard_ptr_asym_holds_the_list_bound_with_two_churners() {
    assert_list_bound::<HazardPtrAsym>(PublishMode::Futex, 2);
}

#[test]
fn hazard_ptr_pop_holds_the_list_bound_with_two_churners_futex() {
    assert_list_bound::<HazardPtrPop>(PublishMode::Futex, 2);
}

#[test]
fn hazard_ptr_pop_holds_the_list_bound_with_two_churners_membarrier() {
    assert_list_bound::<HazardPtrPop>(PublishMode::Membarrier, 2);
}

#[test]
fn epoch_pop_holds_its_escalation_bound_with_two_churners_futex() {
    assert_list_bound::<EpochPop>(PublishMode::Futex, 2);
}

#[test]
fn epoch_pop_holds_its_escalation_bound_with_two_churners_membarrier() {
    assert_list_bound::<EpochPop>(PublishMode::Membarrier, 2);
}
