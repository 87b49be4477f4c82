//! The four workloads. Each exists to stress a different layer; the `why`
//! strings are what `BENCHMARK.json` carries.

use crate::adapter::Structure;
use crate::gen::{Mix, CLIENTS};

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub structure: Structure,
    pub key_range: u64,
    pub mix: Mix,
    /// The second client sits in one operation, asleep, instead of working.
    pub stalled_reader: bool,
}

impl Workload {
    /// Clients that run the operation mix (and whose throughput is counted).
    pub fn active_clients(&self) -> usize {
        if self.stalled_reader {
            1
        } else {
            CLIENTS
        }
    }
}

pub static ALL: [Workload; 4] = [
    Workload {
        name: "list-read",
        why: "HmList, 2000 keys, 90/5/5 contains/insert/remove: ~500 protects per op and ~6 passes per slice, so the read path is nearly all the work (the paper's headline case)",
        structure: Structure::List,
        key_range: 2_000,
        mix: Mix {
            contains: 90,
            insert: 5,
        },
        stalled_reader: false,
    },
    Workload {
        name: "hash-update",
        why: "HashMapHm, 60000 keys, 50/50 insert/remove: ~3 protects per op, a slab alloc or a retire on almost every op, hundreds of passes per slice; a read-path gain must show no change here",
        structure: Structure::Hash { key_range: 60_000 },
        key_range: 60_000,
        mix: Mix {
            contains: 0,
            insert: 50,
        },
        stalled_reader: false,
    },
    Workload {
        name: "tree-mixed",
        why: "NmTree, 20000 keys, 50/25/25: ~90 pointer-chasing protects per op beside hundreds of passes per slice, so a read gain bought with slower retires (or the reverse) shows as a loss",
        structure: Structure::Tree,
        key_range: 20_000,
        mix: Mix {
            contains: 50,
            insert: 25,
        },
        stalled_reader: false,
    },
    Workload {
        name: "stalled-reader",
        why: "HmList, 512 keys, one updater flat out while the other client sleeps inside an operation: garbage must stay bounded and every pass must ping a sleeping thread (robustness)",
        structure: Structure::List,
        key_range: 512,
        mix: Mix {
            contains: 0,
            insert: 50,
        },
        stalled_reader: true,
    },
];

pub fn by_name(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_whys_fit_the_manifest_limits() {
        for (i, w) in ALL.iter().enumerate() {
            assert!(ALL[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.chars().count() <= 200, "{}: why too long", w.name);
            assert!(!w.why.contains('\n'));
            assert!(by_name(w.name).is_some());
            assert!(w.key_range % (2 * CLIENTS as u64) == 0);
        }
        assert!(by_name("nope").is_none());
    }
}
