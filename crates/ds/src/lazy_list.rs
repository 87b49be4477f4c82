//! `LL` — the lazy list (Heller, Herlihy, Luchangco, Moir, Scherer &
//! Shavit 2005): optimistic traversal, per-node locks for updates, logical
//! deletion via a `marked` flag followed by physical unlinking under locks.
//!
//! ## Hazard-pointer discipline
//!
//! Unlike Harris-Michael, an unlinked lazy-list node's `next` pointer keeps
//! its old value forever, so validating a link alone does not prove
//! reachability. Traversals therefore re-check `pred.marked` *after*
//! protecting the successor: marks are set (under lock) strictly before
//! unlinking, so an unmarked predecessor at that instant proves the edge
//! was live and the protected successor reachable — the reachable-after-
//! reservation condition hazard pointers require.

use core::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, free_node_raw, retire_node, HasHeader, Header, Restart, Smr,
};

use crate::{ConcurrentMap, Key, Value};

/// Lazy-list node. `#[repr(C)]`, header first.
#[repr(C)]
pub struct Node {
    hdr: Header,
    /// Immutable after insertion (sentinel: `u64::MAX`, never compared).
    pub key: Key,
    /// Value payload.
    pub value: AtomicU64,
    /// Successor (no mark bits — deletion uses the `marked` flag).
    pub next: AtomicPtr<Node>,
    /// Logical-deletion flag; set under `lock` before unlinking.
    pub marked: AtomicBool,
    /// Per-node spinlock for updates.
    lock: AtomicBool,
}

// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for Node {}

impl Node {
    fn alloc<S: Smr>(smr: &S, tid: usize, key: Key, value: Value, next: *mut Node) -> *mut Node {
        alloc_node(
            smr,
            tid,
            Node {
                hdr: Header::new(smr.current_era(), core::mem::size_of::<Node>()),
                key,
                value: AtomicU64::new(value),
                next: AtomicPtr::new(next),
                marked: AtomicBool::new(false),
                lock: AtomicBool::new(false),
            },
        )
    }

    /// Spin-acquires the node lock, polling the scheme's restart flag so a
    /// neutralization-based reclaimer is never left waiting on this spin.
    fn lock<'a, S: Smr>(&'a self, smr: &S, tid: usize) -> Result<LockGuard<'a>, Restart> {
        loop {
            if self
                .lock
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(LockGuard { lock: &self.lock });
            }
            smr.check_restart(tid)?;
            core::hint::spin_loop();
        }
    }
}

/// RAII node-lock guard.
struct LockGuard<'a> {
    lock: &'a AtomicBool,
}

impl Drop for LockGuard<'_> {
    fn drop(&mut self) {
        self.lock.store(false, Ordering::Release);
    }
}

/// The lazy list set.
pub struct LazyList<S: Smr> {
    /// Head sentinel (key unused); never retired.
    head: *mut Node,
    smr: Arc<S>,
}

// SAFETY: shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for LazyList<S> {}
// SAFETY: every shared mutation is an atomic store under the node locks,
// and every dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for LazyList<S> {}

struct Position {
    pred: *mut Node,
    curr: *mut Node,
}

/// Hazard slots used by the search (the domain must have at least this
/// many).
pub const SLOTS_REQUIRED: usize = 2;

impl<S: Smr> LazyList<S> {
    /// Creates an empty list.
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "LazyList");
        // The sentinel is allocated outside the domain accounting (it lives
        // for the structure's lifetime and is never retired).
        let head = Box::into_raw(Box::new(Node {
            hdr: Header::new(0, core::mem::size_of::<Node>()),
            key: 0,
            value: AtomicU64::new(0),
            next: AtomicPtr::new(core::ptr::null_mut()),
            marked: AtomicBool::new(false),
            lock: AtomicBool::new(false),
        }));
        LazyList { head, smr }
    }

    /// Optimistic search: returns protected `pred` (slot `sp`) and `curr`
    /// (slot `sc`), where `curr` is the first node with `key >= target`
    /// (or null).
    fn search(&self, tid: usize, key: Key) -> Result<Position, Restart> {
        let row = self.smr.row(tid);
        'retry: loop {
            let mut pred = self.head;
            let mut sp = 0usize;
            let mut sc = 1usize;
            // SAFETY: head sentinel is never freed; later preds are
            // protected in slot `sp`.
            let mut curr = self.smr.protect_in(&row, sc, unsafe { &(*pred).next })?;
            loop {
                // Reachability re-check (see module docs): pred must be
                // unmarked *after* curr's reservation was validated.
                // SAFETY: pred is the sentinel or protected in slot sp.
                if unsafe { &*pred }.marked.load(Ordering::Acquire) {
                    continue 'retry;
                }
                if curr.is_null() {
                    return Ok(Position { pred, curr });
                }
                // Unmarked pred at this point ⇒ the edge was live ⇒ curr
                // reachable after reservation — safe to dereference.
                self.smr.check_live(curr);
                // SAFETY: curr is protected in slot sc.
                let ckey = unsafe { &*curr }.key;
                if ckey >= key {
                    return Ok(Position { pred, curr });
                }
                pred = curr;
                core::mem::swap(&mut sp, &mut sc);
                // SAFETY: new pred (old curr) is protected in slot sp.
                curr = self.smr.protect_in(&row, sc, unsafe { &(*pred).next })?;
            }
        }
    }

    fn try_insert(&self, tid: usize, key: Key, value: Value) -> Result<bool, Restart> {
        let pos = self.search(tid, key)?;
        // SAFETY: curr protected (or null-checked) by search.
        if !pos.curr.is_null() && unsafe { &*pos.curr }.key == key {
            // SAFETY: non-null just above, and protected by search.
            if unsafe { &*pos.curr }.marked.load(Ordering::Acquire) {
                return Err(Restart); // mid-removal: retry until unlinked
            }
            return Ok(false);
        }
        // SAFETY: pred is the sentinel or protected by search.
        let pred_ref = unsafe { &*pos.pred };
        let _pl = pred_ref.lock(&*self.smr, tid)?;
        // Validate under the lock.
        if pred_ref.marked.load(Ordering::Acquire)
            || pred_ref.next.load(Ordering::Acquire) != pos.curr
        {
            return Err(Restart);
        }
        let mut wset = [core::ptr::null_mut::<Header>(); 2];
        let mut n = 0;
        wset[n] = as_header(pos.pred);
        n += 1;
        if !pos.curr.is_null() {
            wset[n] = as_header(pos.curr);
            n += 1;
        }
        self.smr.begin_write(tid, &wset[..n])?;
        let node = Node::alloc(&*self.smr, tid, key, value, pos.curr);
        pred_ref.next.store(node, Ordering::Release);
        self.smr.end_write(tid);
        Ok(true)
    }

    fn try_remove(&self, tid: usize, key: Key) -> Result<bool, Restart> {
        let pos = self.search(tid, key)?;
        if pos.curr.is_null() {
            return Ok(false);
        }
        // SAFETY: curr protected by search.
        let curr_ref = unsafe { &*pos.curr };
        if curr_ref.key != key {
            return Ok(false);
        }
        if curr_ref.marked.load(Ordering::Acquire) {
            return Ok(false); // already logically removed
        }
        // SAFETY: pred is the sentinel or protected by search.
        let pred_ref = unsafe { &*pos.pred };
        // Lock order: list position (pred before curr) — no deadlocks.
        let _pl = pred_ref.lock(&*self.smr, tid)?;
        let _cl = curr_ref.lock(&*self.smr, tid)?;
        if pred_ref.marked.load(Ordering::Acquire)
            || curr_ref.marked.load(Ordering::Acquire)
            || pred_ref.next.load(Ordering::Acquire) != pos.curr
        {
            return Err(Restart);
        }
        let succ = curr_ref.next.load(Ordering::Acquire);
        let mut wset = [core::ptr::null_mut::<Header>(); 3];
        let mut n = 0;
        wset[n] = as_header(pos.pred);
        n += 1;
        wset[n] = as_header(pos.curr);
        n += 1;
        if !succ.is_null() {
            wset[n] = as_header(succ);
            n += 1;
        }
        self.smr.begin_write(tid, &wset[..n])?;
        // Logical deletion first (readers check this flag), then unlink.
        curr_ref.marked.store(true, Ordering::Release);
        pred_ref.next.store(succ, Ordering::Release);
        // SAFETY: unlinked under both locks — retired exactly once.
        unsafe { retire_node(&*self.smr, tid, pos.curr) };
        self.smr.end_write(tid);
        Ok(true)
    }

    fn try_get(&self, tid: usize, key: Key) -> Result<Option<Value>, Restart> {
        let pos = self.search(tid, key)?;
        if pos.curr.is_null() {
            return Ok(None);
        }
        // SAFETY: curr protected by search.
        let curr_ref = unsafe { &*pos.curr };
        if curr_ref.key == key && !curr_ref.marked.load(Ordering::Acquire) {
            Ok(Some(curr_ref.value.load(Ordering::Acquire)))
        } else {
            Ok(None)
        }
    }

    /// Sequential iteration for test validation (requires quiescence).
    pub fn iter_quiescent(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        // SAFETY: caller guarantees no concurrent mutation.
        let mut p = unsafe { &*self.head }.next.load(Ordering::Acquire);
        while !p.is_null() {
            // SAFETY: quiescence again — no node is unlinked or freed while
            // we walk, so every non-null link names a live node.
            let n = unsafe { &*p };
            if !n.marked.load(Ordering::Acquire) {
                out.push((n.key, n.value.load(Ordering::Acquire)));
            }
            p = n.next.load(Ordering::Acquire);
        }
        out
    }
}

impl<S: Smr> ConcurrentMap<S> for LazyList<S> {
    const DS_NAME: &'static str = "LL";

    fn with_domain(smr: Arc<S>) -> Self {
        Self::new(smr)
    }

    fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    fn insert(&self, tid: usize, key: Key, value: Value) -> bool {
        loop {
            self.smr.begin_op(tid);
            let r = self.try_insert(tid, key, value);
            self.smr.end_op(tid);
            match r {
                Ok(b) => return b,
                Err(Restart) => continue,
            }
        }
    }

    fn remove(&self, tid: usize, key: Key) -> bool {
        loop {
            self.smr.begin_op(tid);
            let r = self.try_remove(tid, key);
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
        loop {
            self.smr.begin_op(tid);
            let r = self.try_get(tid, key);
            self.smr.end_op(tid);
            match r {
                Ok(v) => return v,
                Err(Restart) => continue,
            }
        }
    }
}

impl<S: Smr> Drop for LazyList<S> {
    fn drop(&mut self) {
        // Quiescent teardown, sentinel included.
        let mut p = self.head;
        while !p.is_null() {
            // SAFETY: exclusive access in Drop.
            let next = unsafe { &*p }.next.load(Ordering::Relaxed);
            // SAFETY: exclusive access; dispatches on the slab bit.
            unsafe { free_node_raw(p) };
            p = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::{HazardEraPop, SmrConfig};

    fn list() -> (Arc<HazardEraPop>, LazyList<HazardEraPop>) {
        let smr = HazardEraPop::new(SmrConfig::for_tests(4).with_reclaim_freq(8));
        let l = LazyList::new(Arc::clone(&smr));
        (smr, l)
    }

    #[test]
    fn roundtrip() {
        let (smr, l) = list();
        let reg = smr.register(0);
        assert!(l.insert(0, 2, 20));
        assert!(l.insert(0, 1, 10));
        assert!(l.insert(0, 3, 30));
        assert!(!l.insert(0, 2, 21));
        assert_eq!(l.get(0, 2), Some(20));
        assert!(l.remove(0, 2));
        assert!(!l.remove(0, 2));
        assert_eq!(l.iter_quiescent(), vec![(1, 10), (3, 30)]);
        drop(reg);
    }

    #[test]
    fn sorted_after_random_inserts() {
        let (smr, l) = list();
        let reg = smr.register(0);
        for k in [9u64, 2, 7, 4, 1, 8, 3] {
            assert!(l.insert(0, k, 0));
        }
        let keys: Vec<u64> = l.iter_quiescent().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, vec![1, 2, 3, 4, 7, 8, 9]);
        drop(reg);
    }

    #[test]
    fn removed_nodes_reach_domain() {
        let (smr, l) = list();
        let reg = smr.register(0);
        for k in 1..=50u64 {
            l.insert(0, k, k);
        }
        for k in 1..=50u64 {
            assert!(l.remove(0, k));
        }
        // Retired totals are exact at seal points (flush seals the
        // partial batch).
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().retired_nodes, 50);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }
}
