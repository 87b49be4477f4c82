//! Steady-state reclamation hands nothing to the kernel.
//!
//! Two threads churn a small hash table 50/50, so each allocates and retires
//! at the same steady rate and empties a slab about as often as it starts
//! one. Those slabs must cycle through the allocator's warm pool: over the
//! second half of the run no page is released and, for a scheme whose garbage
//! is bounded, (almost) no slab is mapped. Releasing every emptied slab, as the allocator once did, moves
//! `released_bytes()` a few dozen times in that half.
//!
//! The gauges are process-wide, so this test is alone in its file.

use std::sync::{Arc, Barrier};

use pop::ds::hash_map::HashMapHm;
use pop::ds::ConcurrentMap;
use pop::smr::slab::{mapped_slabs, released_bytes};
use pop::smr::{Ebr, HazardPtrPop, Smr, SmrConfig};

const THREADS: usize = 2;
const OPS_PER_THREAD: u64 = 100_000;
const KEY_RANGE: u64 = 1024;

/// Slabs a robust scheme's second half may still map. Its garbage is bounded
/// whatever the schedule, so its footprint is fixed once the run is under way
/// (a pool that did not recycle would map a dozen per client in that half).
/// EBR's is not: a client descheduled inside an operation holds reclamation
/// up for as long as it sleeps and the other maps slabs meanwhile, so for EBR
/// only the release gauge is checked.
const MAPPED_SLACK: u64 = 2;

/// `(released_bytes, mapped_slabs)`.
type Gauges = (u64, u64);

fn churn<S: Smr>() {
    let smr = S::new(SmrConfig::for_tests(THREADS));
    let map = Arc::new(HashMapHm::with_buckets(Arc::clone(&smr), 256));
    let barrier = Arc::new(Barrier::new(THREADS));
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let map = Arc::clone(&map);
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || -> (Gauges, Gauges) {
                let _reg = map.smr().register(tid);
                // Every client is stopped at the barrier while the gauges
                // are read.
                let sample = || {
                    barrier.wait();
                    let gauges = (released_bytes(), mapped_slabs());
                    barrier.wait();
                    gauges
                };
                let mut mid = (0, 0);
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ (tid as u64) << 17;
                barrier.wait(); // start together
                for i in 0..OPS_PER_THREAD {
                    if i == OPS_PER_THREAD / 2 {
                        mid = sample();
                    }
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEY_RANGE;
                    if (x >> 32) & 1 == 0 {
                        map.insert(tid, key, key);
                    } else {
                        map.remove(tid, key);
                    }
                }
                (mid, sample())
            })
        })
        .collect();
    for h in handles {
        let ((mid_released, mid_mapped), (end_released, end_mapped)) =
            h.join().expect("churn worker panicked");
        assert!(
            mid_mapped > 0,
            "{}: the table's nodes are slab-backed",
            S::NAME
        );
        assert_eq!(
            end_released,
            mid_released,
            "{}: a steady allocate/retire cycle released pages",
            S::NAME
        );
        assert!(
            !S::ROBUST || end_mapped - mid_mapped <= MAPPED_SLACK,
            "{}: mapped {mid_mapped} -> {end_mapped} slabs with the pool warm",
            S::NAME
        );
    }
}

#[test]
fn steady_churn_neither_releases_nor_maps() {
    // The robust scheme first: it starts from an empty pool, so every slab
    // it uses it had to map, and its mapped-slabs check is not vacuous.
    churn::<HazardPtrPop>();
    churn::<Ebr>();
}
