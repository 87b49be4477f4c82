//! The paper's robustness properties, end to end through a data structure.
//!
//! Property 3 (HazardPtrPOP) / Property 5 (EpochPOP): with a stalled
//! reader, unreclaimed garbage stays below `threshold + N × H` — the same
//! bound for both, since EpochPOP escalates as soon as its epoch pass
//! leaves the threshold.
//! EBR, by contrast, accumulates garbage proportional to the work done
//! while the reader is stalled (§2.2.2) — asserted here as the *absence*
//! of a bound, so the comparison is meaningful.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

use pop::ds::hml::HmList;
use pop::ds::ConcurrentMap;
use pop::smr::{Ebr, EpochPop, HazardEraPop, HazardPtrPop, Smr, SmrConfig};

const CHURN_OPS: u64 = 30_000;
const KEYS: u64 = 512;

/// Runs writers while one reader sits inside an operation holding a
/// protected pointer; returns final unreclaimed nodes and the config.
fn stalled_garbage<S: Smr>(reclaim_freq: usize) -> (u64, SmrConfig) {
    let cfg = SmrConfig::for_tests(3).with_reclaim_freq(reclaim_freq);
    let smr = S::new(cfg.clone());
    let set = Arc::new(HmList::new(Arc::clone(&smr)));
    let hold = Arc::new(AtomicBool::new(true));
    let (ready_tx, ready_rx) = mpsc::channel();

    // Seed a key so the reader has something to protect.
    {
        let reg = smr.register(2);
        set.insert(2, 0, 0);
        drop(reg);
    }

    let reader = {
        let set = Arc::clone(&set);
        let smr = Arc::clone(&smr);
        let hold = Arc::clone(&hold);
        std::thread::spawn(move || {
            let reg = smr.register(2);
            // Enter an operation and keep a live protection (mimics a
            // reader preempted mid-traversal).
            smr.begin_op(2);
            let _ = set.contains(2, 0);
            // contains() ended its op; re-enter and stall for real.
            smr.begin_op(2);
            ready_tx.send(()).unwrap();
            while hold.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            smr.end_op(2);
            drop(reg);
        })
    };
    ready_rx.recv().unwrap();

    let writers: Vec<_> = (0..2)
        .map(|tid| {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let _reg = set.smr().register(tid);
                let mut k = 1 + tid as u64;
                for _ in 0..CHURN_OPS {
                    set.insert(tid, k % KEYS, k);
                    set.remove(tid, k % KEYS);
                    k = k.wrapping_add(7);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().unwrap();
    }
    let garbage = smr.stats().snapshot().unreclaimed_nodes();
    hold.store(false, Ordering::Release);
    reader.join().unwrap();
    (garbage, cfg)
}

#[test]
fn ebr_garbage_grows_with_stalled_reader() {
    let (garbage, cfg) = stalled_garbage::<Ebr>(128);
    // The stalled reader pins the epoch: essentially everything retired
    // after the stall remains unreclaimed. A loose lower bound suffices.
    assert!(
        garbage as usize > 10 * cfg.reclaim_freq,
        "expected unbounded-ish EBR garbage, got {garbage}"
    );
}

#[test]
fn hazard_ptr_pop_bounded_despite_stall() {
    let (garbage, cfg) = stalled_garbage::<HazardPtrPop>(128);
    let bound = cfg.reclaim_freq + cfg.max_threads * cfg.slots;
    assert!(
        (garbage as usize) <= bound,
        "HazardPtrPOP garbage {garbage} exceeds Property 3 bound {bound}"
    );
}

#[test]
fn hazard_era_pop_bounded_despite_stall() {
    let (garbage, cfg) = stalled_garbage::<HazardEraPop>(128);
    // Era reservations can pin whole eras; the quiescent-but-stalled
    // reader holds no era here (it ended its traversal), so the list
    // bound applies with slack for era granularity.
    let bound = 2 * (cfg.reclaim_freq + cfg.max_threads * cfg.slots);
    assert!(
        (garbage as usize) <= bound,
        "HazardEraPOP garbage {garbage} exceeds bound {bound}"
    );
}

#[test]
fn epoch_pop_bounded_despite_stall() {
    let (garbage, cfg) = stalled_garbage::<EpochPop>(128);
    let bound = cfg.reclaim_freq + cfg.max_threads * cfg.slots;
    assert!(
        (garbage as usize) <= bound,
        "EpochPOP garbage {garbage} exceeds Property 5 bound {bound}"
    );
}

#[test]
fn epoch_pop_drains_after_stall_clears() {
    let cfg = SmrConfig::for_tests(2).with_reclaim_freq(64);
    let smr = EpochPop::new(cfg);
    let set = HmList::new(Arc::clone(&smr));
    let reg = smr.register(0);
    for k in 0..500u64 {
        set.insert(0, k % KEYS, k);
        set.remove(0, k % KEYS);
    }
    smr.flush(0);
    assert_eq!(
        smr.stats().snapshot().unreclaimed_nodes(),
        0,
        "quiescent domain must drain completely"
    );
    drop(reg);
}
