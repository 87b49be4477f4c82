//! Robustness: what happens when a reader stalls mid-operation.
//!
//! ```sh
//! cargo run --release --example robust_reclamation
//! ```
//!
//! One thread enters a data-structure operation and goes to sleep —
//! paging, preemption, a debugger, whatever. Meanwhile two writers churn.
//! Under EBR the stalled reader pins the global epoch and garbage grows
//! with every update (the out-of-memory failure mode from paper §2.2.2).
//! EpochPOP runs the *same* epoch fast path, but when a reclaimer notices
//! its retire list isn't draining it pings all threads — including the
//! sleeping one, whose signal handler publishes its private reservations —
//! and frees everything except the bounded reserved set (paper §4.2).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pop::ds::hml::HmList;
use pop::ds::ConcurrentMap;
use pop::smr::{Ebr, EpochPop, Smr, SmrConfig};

fn stalled_run<S: Smr>() -> (u64, u64, u64) {
    const WRITERS: usize = 2;
    let smr = S::new(SmrConfig::for_threads(WRITERS + 1).with_reclaim_freq(512));
    let set = Arc::new(HmList::new(Arc::clone(&smr)));
    let stop = Arc::new(AtomicBool::new(false));
    let wake = Arc::new(AtomicBool::new(false));

    // The stalled reader: begins an operation and sleeps.
    let sleeper = {
        let set = Arc::clone(&set);
        let wake = Arc::clone(&wake);
        std::thread::spawn(move || {
            let _reg = set.smr().register(WRITERS);
            set.smr().begin_op(WRITERS);
            while !wake.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(10));
            }
            set.smr().end_op(WRITERS);
        })
    };
    std::thread::sleep(Duration::from_millis(30));

    let writers: Vec<_> = (0..WRITERS)
        .map(|tid| {
            let set = Arc::clone(&set);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let _reg = set.smr().register(tid);
                let mut k = tid as u64;
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    set.insert(tid, k % 2_048, k);
                    set.remove(tid, k % 2_048);
                    k = k.wrapping_add(13);
                    ops += 2;
                }
                ops
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(800));
    stop.store(true, Ordering::Release);
    let ops: u64 = writers.into_iter().map(|h| h.join().unwrap()).sum();
    // Snapshot while the reader still sleeps inside its operation: its
    // unregister flush runs a pass that frees everything it pinned.
    let s = smr.stats().snapshot();
    wake.store(true, Ordering::Release);
    sleeper.join().unwrap();
    (ops, s.unreclaimed_nodes(), s.pings_sent)
}

fn main() {
    println!("2 writers churn for 800ms while 1 reader sleeps inside an op\n");
    let (ebr_ops, ebr_garbage, _) = stalled_run::<Ebr>();
    let (pop_ops, pop_garbage, pop_pings) = stalled_run::<EpochPop>();

    println!(
        "{:<10} {:>12} {:>20} {:>8}",
        "scheme", "writer ops", "unreclaimed nodes", "pings"
    );
    println!("{:<10} {:>12} {:>20} {:>8}", "EBR", ebr_ops, ebr_garbage, 0);
    println!(
        "{:<10} {:>12} {:>20} {:>8}",
        "EpochPOP", pop_ops, pop_garbage, pop_pings
    );
    println!();
    println!(
        "EBR garbage scales with writer work ({}% of {} retired ops unreclaimed);",
        if ebr_ops > 0 {
            ebr_garbage * 100 / ebr_ops.max(1)
        } else {
            0
        },
        ebr_ops
    );
    println!("EpochPOP pinged the sleeper and stayed bounded.");
    assert!(
        pop_garbage < ebr_garbage / 2,
        "EpochPOP should reclaim past the stalled reader"
    );
}
