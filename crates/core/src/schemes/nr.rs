//! `NR` — no reclamation.
//!
//! Retired nodes are leaked. This is the paper's `NR` series: an upper
//! bound on throughput (zero reclamation overhead) and an unbounded lower
//! bound on memory. Useful as the normalization baseline of Figure 4.
//!
//! NR still retires through the shared batch pipeline: nodes fill a block,
//! the seal runs the amortized accounting, and the sealed block is then
//! *abandoned* (its records leaked, its box recycled) instead of pooled —
//! so even the leak baseline pays only one stats RMW per batch.

use core::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use crate::base::DomainBase;
use crate::config::SmrConfig;
use crate::header::Retired;
use crate::smr::{ReadResult, Smr};
use crate::stats::DomainStats;

/// Leaky "reclamation": every retire is a leak.
pub struct NoReclaim {
    base: DomainBase,
}

impl Smr for NoReclaim {
    const NAME: &'static str = "NR";
    const ROBUST: bool = false;
    const NEEDS_SIGNALS: bool = false;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        Arc::new(NoReclaim {
            base: DomainBase::new(cfg),
        })
    }

    fn config(&self) -> &SmrConfig {
        &self.base.cfg
    }

    fn stats(&self) -> &DomainStats {
        &self.base.stats
    }

    fn register_raw(&self, tid: usize) {
        self.base.claim(tid);
    }

    fn unregister(&self, tid: usize) {
        self.flush(tid);
        self.base.release(tid);
    }

    #[inline]
    fn begin_op(&self, _tid: usize) {}

    #[inline]
    fn end_op(&self, _tid: usize) {}

    #[inline]
    fn protect<T>(&self, _tid: usize, _slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        Ok(src.load(Ordering::Acquire))
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        self.base.leak(tid, retired);
    }

    fn flush(&self, tid: usize) {
        self.base.leak_open(tid);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::header::{HasHeader, Header};
    use crate::smr::retire_node;

    #[repr(C)]
    struct N {
        hdr: Header,
        v: u64,
    }
    unsafe impl HasHeader for N {}

    #[test]
    fn nr_leaks_by_design() {
        let smr = NoReclaim::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        for i in 0..10u64 {
            let p = Box::into_raw(Box::new(N {
                hdr: Header::new(0, core::mem::size_of::<N>()),
                v: i,
            }));
            smr.note_alloc(0, core::mem::size_of::<N>());
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.retired_nodes, 10);
        assert_eq!(s.freed_nodes, 0, "NR must never free");
        assert_eq!(s.unreclaimed_nodes(), 10);
        drop(reg);
    }

    #[test]
    fn protect_is_plain_load() {
        let smr = NoReclaim::new(SmrConfig::for_tests(1));
        let reg = smr.register(0);
        let node = Box::into_raw(Box::new(N {
            hdr: Header::new(0, 0),
            v: 9,
        }));
        let src = AtomicPtr::new(node);
        let got = smr.protect(0, 0, &src).unwrap();
        assert_eq!(got, node);
        unsafe { drop(Box::from_raw(node)) };
        drop(reg);
    }
}
