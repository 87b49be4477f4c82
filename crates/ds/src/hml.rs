//! `HML` — the Harris-Michael lock-free linked-list set (Michael 2004),
//! the paper's primary list benchmark and the structure its hash table
//! builds on.
//!
//! Deletion is two-phase: (1) *logical* — CAS the victim's `next` pointer
//! to its marked form; (2) *physical* — CAS the predecessor's `next` from
//! the victim to its successor, after which the victim is retired.
//! Traversals help with phase 2.
//!
//! ## Hazard-pointer discipline
//!
//! A node is protected by `protect(slot, &pred_link)` whose validation
//! re-read guarantees: either the link still holds the same (unmarked)
//! value — in which case the target was reachable at reservation time — or
//! the traversal restarts. A *marked* value read from `pred_link` means the
//! predecessor itself was logically deleted; the traversal restarts from
//! the head rather than trusting the link (this is what makes
//! reserve-then-validate sound even for reservations made after a
//! publish-on-ping reclaimer collected reservations: unlinked nodes are
//! only reachable through marked links, which traversals refuse to cross).
//!
//! The core operations are free functions over a bucket head so
//! [`crate::hash_map`] reuses them verbatim.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, dealloc_node_unpublished, free_node_raw, retire_node, HasHeader, Header,
    ReadResult, Restart, Smr,
};

use crate::marked::{is_marked, unmarked};
use crate::{ConcurrentMap, Key, Value};

/// List node. `#[repr(C)]`, header first — see [`HasHeader`].
#[repr(C)]
pub struct Node {
    hdr: Header,
    /// Immutable after insertion.
    pub key: Key,
    /// Mutated only by `insert` of an existing key (not used by the set
    /// API, but `get` reads it); atomic for race-freedom.
    pub value: AtomicU64,
    /// Successor pointer; bit 0 is the deletion mark.
    pub next: AtomicPtr<Node>,
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
            },
        )
    }
}

/// Successful traversal position: `curr` (possibly null) is the first node
/// with `key >= target`, reachable from `pred_link`.
struct Position {
    pred_link: *const AtomicPtr<Node>,
    /// Node owning `pred_link`, null when `pred_link` is the head.
    pred_node: *mut Node,
    curr: *mut Node,
    found: bool,
}

/// Hazard slots used by list traversals (callers of the bucket ops must
/// configure their domain with at least this many slots).
pub const SLOTS_REQUIRED: usize = 2;

/// Finds the position for `key`, helping to unlink marked nodes.
///
/// On success, `curr` is protected in one hazard slot and `pred_node` (if
/// non-null) in the other.
fn find<S: Smr>(
    smr: &S,
    tid: usize,
    head: &AtomicPtr<Node>,
    key: Key,
) -> Result<Position, Restart> {
    let row = smr.row(tid);
    'retry: loop {
        let mut pred_link: *const AtomicPtr<Node> = head;
        let mut pred_node: *mut Node = core::ptr::null_mut();
        // Alternating hazard slots: `sc` protects curr, `sp` the pred node.
        let mut sp = 0usize;
        let mut sc = 1usize;
        // SAFETY: `pred_link` points to the head (owned by the list).
        let mut curr_raw = smr.protect_in(&row, sc, unsafe { &*pred_link })?;
        loop {
            if is_marked(curr_raw) {
                // The predecessor was logically deleted under us; its link
                // can no longer be trusted to reach live nodes.
                continue 'retry;
            }
            let curr = curr_raw;
            if curr.is_null() {
                return Ok(Position {
                    pred_link,
                    pred_node,
                    curr,
                    found: false,
                });
            }
            // Unmarked link from a live predecessor ⇒ curr was reachable
            // after the reservation — safe to dereference.
            smr.check_live(curr);
            // SAFETY: `curr` is protected (validated reachable) and unmarked.
            let curr_ref = unsafe { &*curr };
            let next_raw = curr_ref.next.load(Ordering::Acquire);
            if is_marked(next_raw) {
                // `curr` is logically deleted: help unlink it.
                let succ = unmarked(next_raw);
                let mut wset = [core::ptr::null_mut::<Header>(); 3];
                let mut n = 0;
                if !pred_node.is_null() {
                    wset[n] = as_header(pred_node);
                    n += 1;
                }
                wset[n] = as_header(curr);
                n += 1;
                if !succ.is_null() {
                    wset[n] = as_header(succ);
                    n += 1;
                }
                smr.begin_write(tid, &wset[..n])?;
                // SAFETY: pred_link is either the head or the protected
                // pred_node's next field.
                let unlinked = unsafe { &*pred_link }
                    .compare_exchange(curr, succ, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                if unlinked {
                    // SAFETY: we won the unlink CAS — retire exactly once.
                    unsafe { retire_node(smr, tid, curr) };
                }
                smr.end_write(tid);
                if !unlinked {
                    continue 'retry;
                }
                // Re-read the link; pred is unchanged.
                // SAFETY: pred_link is still the head or the protected
                // pred_node's next field.
                curr_raw = smr.protect_in(&row, sc, unsafe { &*pred_link })?;
                continue;
            }
            let ckey = curr_ref.key;
            if ckey >= key {
                return Ok(Position {
                    pred_link,
                    pred_node,
                    curr,
                    found: ckey == key,
                });
            }
            // Advance: curr becomes the predecessor (keeping its hazard
            // slot); the freed slot protects the new curr.
            pred_link = &curr_ref.next;
            pred_node = curr;
            core::mem::swap(&mut sp, &mut sc);
            // SAFETY: pred_link is the protected pred_node's next field.
            curr_raw = smr.protect_in(&row, sc, unsafe { &*pred_link })?;
        }
    }
}

/// Set-insert into the list at `head`. Free function for bucket reuse.
pub fn insert_at<S: Smr>(
    smr: &S,
    tid: usize,
    head: &AtomicPtr<Node>,
    key: Key,
    value: Value,
) -> ReadResult<Node> {
    let pos = find(smr, tid, head, key)?;
    if pos.found {
        return Ok(core::ptr::null_mut()); // present: no insert
    }
    let node = Node::alloc(smr, tid, key, value, pos.curr);
    let mut wset = [core::ptr::null_mut::<Header>(); 2];
    let mut n = 0;
    if !pos.pred_node.is_null() {
        wset[n] = as_header(pos.pred_node);
        n += 1;
    }
    if !pos.curr.is_null() {
        wset[n] = as_header(pos.curr);
        n += 1;
    }
    if let Err(r) = smr.begin_write(tid, &wset[..n]) {
        // SAFETY: `node` was never published.
        unsafe { dealloc_node_unpublished(smr, tid, node) };
        return Err(r);
    }
    // SAFETY: pred_link is the head or the protected pred node's next.
    let ok = unsafe { &*pos.pred_link }
        .compare_exchange(pos.curr, node, Ordering::AcqRel, Ordering::Acquire)
        .is_ok();
    smr.end_write(tid);
    if ok {
        Ok(node)
    } else {
        // SAFETY: CAS failed; `node` was never published.
        unsafe { dealloc_node_unpublished(smr, tid, node) };
        Err(Restart)
    }
}

/// Set-remove from the list at `head`. Free function for bucket reuse.
pub fn remove_at<S: Smr>(
    smr: &S,
    tid: usize,
    head: &AtomicPtr<Node>,
    key: Key,
) -> Result<bool, Restart> {
    let pos = find(smr, tid, head, key)?;
    if !pos.found {
        return Ok(false);
    }
    let curr = pos.curr;
    // SAFETY: protected by find.
    let curr_ref = unsafe { &*curr };
    let next_raw = curr_ref.next.load(Ordering::Acquire);
    if is_marked(next_raw) {
        return Err(Restart); // someone else is deleting it
    }
    let succ = unmarked(next_raw);
    let mut wset = [core::ptr::null_mut::<Header>(); 3];
    let mut n = 0;
    if !pos.pred_node.is_null() {
        wset[n] = as_header(pos.pred_node);
        n += 1;
    }
    wset[n] = as_header(curr);
    n += 1;
    if !succ.is_null() {
        wset[n] = as_header(succ);
        n += 1;
    }
    smr.begin_write(tid, &wset[..n])?;
    // Phase 1: logical deletion (mark curr.next).
    let marked_succ = crate::marked::marked(succ);
    if curr_ref
        .next
        .compare_exchange(next_raw, marked_succ, Ordering::AcqRel, Ordering::Acquire)
        .is_err()
    {
        smr.end_write(tid);
        return Err(Restart);
    }
    // Phase 2: physical unlink; on failure a helper will finish and retire.
    // SAFETY: pred_link is the head or the protected pred node's next.
    let unlinked = unsafe { &*pos.pred_link }
        .compare_exchange(curr, succ, Ordering::AcqRel, Ordering::Acquire)
        .is_ok();
    if unlinked {
        // SAFETY: we won the unlink CAS — retire exactly once.
        unsafe { retire_node(smr, tid, curr) };
    }
    smr.end_write(tid);
    Ok(true)
}

/// Lookup in the list at `head`. Free function for bucket reuse.
pub fn get_at<S: Smr>(
    smr: &S,
    tid: usize,
    head: &AtomicPtr<Node>,
    key: Key,
) -> Result<Option<Value>, Restart> {
    let pos = find(smr, tid, head, key)?;
    if pos.found {
        // SAFETY: protected by find.
        Ok(Some(unsafe { &*pos.curr }.value.load(Ordering::Acquire)))
    } else {
        Ok(None)
    }
}

/// The Harris-Michael list set.
pub struct HmList<S: Smr> {
    head: AtomicPtr<Node>,
    smr: Arc<S>,
}

// SAFETY: all shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for HmList<S> {}
// SAFETY: every shared mutation is a CAS on an atomic link, and every
// dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for HmList<S> {}

impl<S: Smr> HmList<S> {
    /// Creates an empty list.
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "HmList");
        HmList {
            head: AtomicPtr::new(core::ptr::null_mut()),
            smr,
        }
    }

    /// Sequential iteration for test validation (requires quiescence).
    pub fn iter_quiescent(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        let mut p = unmarked(self.head.load(Ordering::Acquire));
        while !p.is_null() {
            // SAFETY: caller guarantees no concurrent mutation.
            let n = unsafe { &*p };
            let next = n.next.load(Ordering::Acquire);
            if !is_marked(next) {
                out.push((n.key, n.value.load(Ordering::Acquire)));
            }
            p = unmarked(next);
        }
        out
    }
}

impl<S: Smr> ConcurrentMap<S> for HmList<S> {
    const DS_NAME: &'static str = "HML";

    fn with_domain(smr: Arc<S>) -> Self {
        Self::new(smr)
    }

    fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    fn insert(&self, tid: usize, key: Key, value: Value) -> bool {
        loop {
            self.smr.begin_op(tid);
            let r = insert_at(&*self.smr, tid, &self.head, key, value);
            self.smr.end_op(tid);
            match r {
                Ok(p) => return !p.is_null(),
                Err(Restart) => continue,
            }
        }
    }

    fn remove(&self, tid: usize, key: Key) -> bool {
        loop {
            self.smr.begin_op(tid);
            let r = remove_at(&*self.smr, tid, &self.head, key);
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
            let r = get_at(&*self.smr, tid, &self.head, key);
            self.smr.end_op(tid);
            match r {
                Ok(v) => return v,
                Err(Restart) => continue,
            }
        }
    }
}

impl<S: Smr> Drop for HmList<S> {
    fn drop(&mut self) {
        // Quiescent teardown: free remaining nodes directly.
        let mut p = unmarked(self.head.load(Ordering::Relaxed));
        while !p.is_null() {
            // SAFETY: exclusive access in Drop.
            let next = unmarked(unsafe { &*p }.next.load(Ordering::Relaxed));
            // SAFETY: exclusive access; dispatches on the slab bit.
            unsafe { free_node_raw(p) };
            p = next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::{HazardPtrPop, SmrConfig};

    fn list() -> (Arc<HazardPtrPop>, HmList<HazardPtrPop>) {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(4).with_reclaim_freq(8));
        let l = HmList::new(Arc::clone(&smr));
        (smr, l)
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let (smr, l) = list();
        let reg = smr.register(0);
        assert!(l.insert(0, 5, 50));
        assert!(l.insert(0, 3, 30));
        assert!(l.insert(0, 9, 90));
        assert!(!l.insert(0, 5, 55), "duplicate insert rejected");
        assert!(l.contains(0, 3));
        assert_eq!(l.get(0, 5), Some(50));
        assert!(!l.contains(0, 4));
        assert!(l.remove(0, 3));
        assert!(!l.remove(0, 3), "double remove rejected");
        assert!(!l.contains(0, 3));
        assert_eq!(l.iter_quiescent(), vec![(5, 50), (9, 90)]);
        drop(reg);
    }

    #[test]
    fn keeps_sorted_order() {
        let (smr, l) = list();
        let reg = smr.register(0);
        for k in [7u64, 1, 9, 3, 5, 8, 2, 6, 4, 0] {
            assert!(l.insert(0, k, k * 10));
        }
        let snapshot = l.iter_quiescent();
        let keys: Vec<u64> = snapshot.iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        drop(reg);
    }

    #[test]
    fn removal_retires_into_domain() {
        let (smr, l) = list();
        let reg = smr.register(0);
        for k in 0..100u64 {
            l.insert(0, k, k);
        }
        for k in 0..100u64 {
            assert!(l.remove(0, k));
        }
        // Retired totals are exact at seal points (flush seals the
        // partial batch).
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.retired_nodes, 100);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        assert!(l.iter_quiescent().is_empty());
        drop(reg);
    }

    #[test]
    fn empty_list_operations() {
        let (smr, l) = list();
        let reg = smr.register(0);
        assert!(!l.contains(0, 1));
        assert!(!l.remove(0, 1));
        assert_eq!(l.get(0, 1), None);
        drop(reg);
    }
}
