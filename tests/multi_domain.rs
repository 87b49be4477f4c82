//! Multiple signal-based domains coexisting in one process.
//!
//! The process-global SIGUSR1 handler dispatches to *every* active
//! publisher; these tests pin down the invariants that make that safe:
//! one registry slot per OS thread (shared registration), correct
//! gtid→tid mapping per domain, and no cross-domain interference when two
//! domains ping concurrently.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pop::ds::hml::HmList;
use pop::ds::ConcurrentMap;
use pop::smr::{EpochPop, HazardEraPop, HazardPtrPop, Smr, SmrConfig};

#[test]
fn two_pop_domains_on_same_threads() {
    let a = HazardPtrPop::new(SmrConfig::for_tests(2).with_reclaim_freq(64));
    let b = HazardEraPop::new(SmrConfig::for_tests(2).with_reclaim_freq(64));
    let la = Arc::new(HmList::new(Arc::clone(&a)));
    let lb = Arc::new(HmList::new(Arc::clone(&b)));

    let handles: Vec<_> = (0..2)
        .map(|tid| {
            let la = Arc::clone(&la);
            let lb = Arc::clone(&lb);
            std::thread::spawn(move || {
                // One OS thread participates in both domains; the shared
                // registration must give it a single registry slot.
                let ra = la.smr().register(tid);
                let rb = lb.smr().register(tid);
                for i in 0..5_000u64 {
                    let k = i % 97;
                    la.insert(tid, k, i);
                    lb.insert(tid, k, i);
                    la.remove(tid, k);
                    lb.remove(tid, k);
                }
                drop(rb);
                drop(ra);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let sa = a.stats().snapshot();
    let sb = b.stats().snapshot();
    assert!(sa.retired_nodes > 0 && sb.retired_nodes > 0);
    assert!(
        sa.freed_nodes > 0 && sb.freed_nodes > 0,
        "both domains must reclaim: a={sa:?} b={sb:?}"
    );
}

#[test]
fn concurrent_reclaimers_in_different_domains() {
    // Thread 0 reclaims in domain A while thread 1 reclaims in domain B;
    // each pings the other — publishes must be attributed correctly.
    let a = HazardPtrPop::new(SmrConfig::for_tests(2).with_reclaim_freq(32));
    let b = EpochPop::new(SmrConfig::for_tests(2).with_reclaim_freq(32));
    let la = Arc::new(HmList::new(Arc::clone(&a)));
    let lb = Arc::new(HmList::new(Arc::clone(&b)));
    let stop = Arc::new(AtomicBool::new(false));

    let t0 = {
        let la = Arc::clone(&la);
        let lb = Arc::clone(&lb);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let ra = la.smr().register(0);
            let rb = lb.smr().register(0);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                la.insert(0, i % 61, i);
                la.remove(0, i % 61);
                let _ = lb.contains(0, i % 61);
                i += 1;
            }
            drop(rb);
            drop(ra);
        })
    };
    let t1 = {
        let la = Arc::clone(&la);
        let lb = Arc::clone(&lb);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let ra = la.smr().register(1);
            let rb = lb.smr().register(1);
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                lb.insert(1, i % 61, i);
                lb.remove(1, i % 61);
                let _ = la.contains(1, i % 61);
                i += 1;
            }
            drop(rb);
            drop(ra);
        })
    };
    std::thread::sleep(std::time::Duration::from_millis(400));
    stop.store(true, Ordering::Release);
    t0.join().unwrap();
    t1.join().unwrap();

    let sa = a.stats().snapshot();
    let sb = b.stats().snapshot();
    assert!(sa.freed_nodes > 0, "domain A reclaimed: {sa:?}");
    assert!(sb.freed_nodes > 0, "domain B reclaimed: {sb:?}");
}

#[test]
fn registration_guard_cleans_up_for_reuse() {
    let smr = HazardPtrPop::new(SmrConfig::for_tests(1).with_reclaim_freq(16));
    let list = HmList::new(Arc::clone(&smr));
    for round in 0..5 {
        // Same tid reused across spawned threads, serially.
        let h = std::thread::spawn({
            let smr = Arc::clone(&smr);
            move || {
                let reg = smr.register(0);
                drop(reg);
            }
        });
        h.join().unwrap();
        let reg = smr.register(0);
        list.insert(0, round, round);
        list.remove(0, round);
        drop(reg);
    }
    let reg = smr.register(0);
    smr.flush(0);
    drop(reg);
    assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
}
