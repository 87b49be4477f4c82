//! `HMHT` — hash table with Harris-Michael list buckets (the paper's hash
//! table benchmark: "a hashtable based on HML").
//!
//! Each bucket is an independent Harris-Michael list reusing
//! [`crate::hml`]'s bucket operations verbatim; the table size is fixed at
//! construction (the paper sizes it as `keyrange / load_factor`).

use core::sync::atomic::AtomicPtr;
use std::sync::Arc;

use pop_core::{free_node_raw, Restart, Smr};

use crate::hml::{self, Node};
use crate::marked::unmarked;
use crate::{ConcurrentMap, Key, Value};

/// Default bucket count for [`ConcurrentMap::with_domain`].
pub const DEFAULT_BUCKETS: usize = 1 << 16;

/// Fixed-size hash table of Harris-Michael buckets.
pub struct HashMapHm<S: Smr> {
    /// A plain array of heads, eight to a cache line, as in the paper. A
    /// padded head (128 bytes) makes the table 16× its useful size, so every
    /// operation's first access misses L2; and with thousands of lines two
    /// threads meet on a line about as rarely as on a bucket.
    buckets: Box<[AtomicPtr<Node>]>,
    mask: u64,
    smr: Arc<S>,
}

// SAFETY: shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for HashMapHm<S> {}
// SAFETY: every shared mutation is a CAS on an atomic bucket or link, and
// every dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for HashMapHm<S> {}

impl<S: Smr> HashMapHm<S> {
    /// Creates a table with `buckets` rounded up to a power of two.
    pub fn with_buckets(smr: Arc<S>, buckets: usize) -> Self {
        crate::assert_slots(&*smr, crate::hml::SLOTS_REQUIRED, "HashMapHm");
        let n = buckets.next_power_of_two().max(2);
        HashMapHm {
            buckets: (0..n)
                .map(|_| AtomicPtr::new(core::ptr::null_mut()))
                .collect(),
            mask: (n - 1) as u64,
            smr,
        }
    }

    /// Creates a table sized for `key_range` keys at the paper's load
    /// factor (6 keys per bucket).
    pub fn for_key_range(smr: Arc<S>, key_range: u64, load_factor: u64) -> Self {
        let buckets = (key_range / load_factor.max(1)).max(2) as usize;
        Self::with_buckets(smr, buckets)
    }

    #[inline(always)]
    fn bucket(&self, key: Key) -> &AtomicPtr<Node> {
        // Fibonacci multiplicative hash: uniform even for sequential keys.
        let h = key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32;
        &self.buckets[(h & self.mask) as usize]
    }

    /// Number of buckets (diagnostics).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Sequential key census for test validation (requires quiescence).
    pub fn len_quiescent(&self) -> usize {
        let mut n = 0;
        for b in self.buckets.iter() {
            let mut p = unmarked(b.load(core::sync::atomic::Ordering::Acquire));
            while !p.is_null() {
                // SAFETY: caller guarantees no concurrent mutation.
                let node = unsafe { &*p };
                let next = node.next.load(core::sync::atomic::Ordering::Acquire);
                if !crate::marked::is_marked(next) {
                    n += 1;
                }
                p = unmarked(next);
            }
        }
        n
    }
}

impl<S: Smr> ConcurrentMap<S> for HashMapHm<S> {
    const DS_NAME: &'static str = "HMHT";

    fn with_domain(smr: Arc<S>) -> Self {
        Self::with_buckets(smr, DEFAULT_BUCKETS)
    }

    fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    fn insert(&self, tid: usize, key: Key, value: Value) -> bool {
        let head = self.bucket(key);
        loop {
            self.smr.begin_op(tid);
            let r = hml::insert_at(&*self.smr, tid, head, key, value);
            self.smr.end_op(tid);
            match r {
                Ok(p) => return !p.is_null(),
                Err(Restart) => continue,
            }
        }
    }

    fn remove(&self, tid: usize, key: Key) -> bool {
        let head = self.bucket(key);
        loop {
            self.smr.begin_op(tid);
            let r = hml::remove_at(&*self.smr, tid, head, key);
            self.smr.end_op(tid);
            match r {
                Ok(b) => return b,
                Err(Restart) => continue,
            }
        }
    }

    fn contains(&self, tid: usize, key: Key) -> bool {
        self.get(tid, key).is_some()
    }

    fn get(&self, tid: usize, key: Key) -> Option<Value> {
        let head = self.bucket(key);
        loop {
            self.smr.begin_op(tid);
            let r = hml::get_at(&*self.smr, tid, head, key);
            self.smr.end_op(tid);
            match r {
                Ok(v) => return v,
                Err(Restart) => continue,
            }
        }
    }
}

impl<S: Smr> Drop for HashMapHm<S> {
    fn drop(&mut self) {
        for b in self.buckets.iter() {
            let mut p = unmarked(b.load(core::sync::atomic::Ordering::Relaxed));
            while !p.is_null() {
                // SAFETY: exclusive access in Drop.
                let next = unmarked(
                    unsafe { &*p }
                        .next
                        .load(core::sync::atomic::Ordering::Relaxed),
                );
                // SAFETY: exclusive access; dispatches on the slab bit.
                unsafe { free_node_raw(p) };
                p = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::{EpochPop, SmrConfig};

    #[test]
    fn basic_roundtrip() {
        let smr = EpochPop::new(SmrConfig::for_tests(2).with_reclaim_freq(16));
        let m = HashMapHm::with_buckets(Arc::clone(&smr), 8);
        let reg = smr.register(0);
        for k in 0..100u64 {
            assert!(m.insert(0, k, k * 2));
        }
        assert_eq!(m.len_quiescent(), 100);
        for k in 0..100u64 {
            assert_eq!(m.get(0, k), Some(k * 2));
        }
        for k in (0..100u64).step_by(2) {
            assert!(m.remove(0, k));
        }
        assert_eq!(m.len_quiescent(), 50);
        for k in 0..100u64 {
            assert_eq!(m.contains(0, k), k % 2 == 1);
        }
        drop(reg);
    }

    #[test]
    fn bucket_count_rounds_to_power_of_two() {
        let smr = EpochPop::new(SmrConfig::for_tests(1));
        let m = HashMapHm::with_buckets(Arc::clone(&smr), 100);
        assert_eq!(m.bucket_count(), 128);
        let m2 = HashMapHm::for_key_range(Arc::clone(&smr), 6_000_000, 6);
        assert_eq!(m2.bucket_count(), 1 << 20);
    }

    #[test]
    fn collisions_share_buckets_correctly() {
        let smr = EpochPop::new(SmrConfig::for_tests(1));
        let m = HashMapHm::with_buckets(Arc::clone(&smr), 2); // force collisions
        let reg = smr.register(0);
        for k in 0..64u64 {
            assert!(m.insert(0, k, k));
        }
        for k in 0..64u64 {
            assert_eq!(m.get(0, k), Some(k), "collision chain lookup");
        }
        drop(reg);
    }
}
