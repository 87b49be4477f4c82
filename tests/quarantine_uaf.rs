//! Use-after-free oracle: the quarantine detector under concurrent churn.
//!
//! With `SmrConfig::with_quarantine()`, "freed" nodes are poisoned and kept
//! mapped; `protect` asserts the poison word after its validation read. If
//! any scheme ever frees a node a reader could still reach, these tests
//! panic deterministically instead of corrupting the heap.

use std::sync::Arc;

use pop::ds::ext_bst::ExtBst;
use pop::ds::hml::HmList;
use pop::ds::nm_tree::NmTree;
use pop::ds::ConcurrentMap;
use pop::smr::{
    Ebr, EpochPop, HazardEra, HazardEraPop, HazardPtr, HazardPtrAsym, HazardPtrPop, NbrPlus, Smr,
    SmrConfig, Vbr,
};

const THREADS: usize = 3;
const OPS: u64 = 15_000;
const KEYS: u64 = 64;

fn churn<S: Smr, M: ConcurrentMap<S>>() {
    // Tiny reclaim threshold: free as often as possible to maximize the
    // chance of racing a reader.
    let smr = S::new(
        SmrConfig::for_tests(THREADS)
            .with_reclaim_freq(32)
            .with_quarantine(),
    );
    let map = Arc::new(M::with_domain(Arc::clone(&smr)));
    let handles: Vec<_> = (0..THREADS)
        .map(|tid| {
            let map = Arc::clone(&map);
            std::thread::spawn(move || {
                let _reg = map.smr().register(tid);
                let mut x = 0xB7E151628AED2A6Bu64 ^ (tid as u64) << 21;
                for _ in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = x % KEYS;
                    match x % 3 {
                        0 => {
                            map.insert(tid, key, key);
                        }
                        1 => {
                            map.remove(tid, key);
                        }
                        _ => {
                            map.contains(tid, key);
                        }
                    }
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("UAF detected or worker panicked");
    }
    let s = smr.stats().snapshot();
    assert!(
        s.freed_nodes > 0,
        "quarantine churn must actually exercise freeing (freed = 0)"
    );
}

macro_rules! uaf_tests {
    ($($name:ident : $scheme:ty),+ $(,)?) => {
        $(
            mod $name {
                use super::*;
                #[test]
                fn hml_churn() {
                    churn::<$scheme, HmList<$scheme>>();
                }
                #[test]
                fn ext_bst_churn() {
                    churn::<$scheme, ExtBst<$scheme>>();
                }
                #[test]
                fn nm_tree_churn() {
                    churn::<$scheme, NmTree<$scheme>>();
                }
            }
        )+
    };
}

// Every instance of the hazard and epoch engines, plus NBR+: each
// structure's traversal runs `check_live` on the nodes it reaches, so any
// premature free panics here. (NR leaks by design; IBR and Hyaline are
// covered by stress_matrix.)
uaf_tests! {
    hp: HazardPtr,
    hp_asym: HazardPtrAsym,
    he: HazardEra,
    hazard_ptr_pop: HazardPtrPop,
    hazard_era_pop: HazardEraPop,
    ebr: Ebr,
    epoch_pop: EpochPop,
    vbr: Vbr,
    nbr_plus: NbrPlus,
}
