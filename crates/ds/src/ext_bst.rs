//! `DGT` — external (leaf-oriented) binary search tree with per-node
//! locks, after David, Guerraoui & Trigonakis ("Asynchronized
//! Concurrency", 2015).
//!
//! All keys live in leaves; internal nodes are pure routing (`key < node.key`
//! goes left). Insert replaces a leaf with a routing node over two leaves
//! (reusing the old leaf — nothing retired). Delete splices out the leaf's
//! parent, retiring the parent and the leaf. Searches are optimistic:
//! protect each child edge, then re-check the parent's `marked` flag (set
//! under lock strictly before unlinking) — the same
//! reachable-after-reservation argument as the lazy list.
//!
//! Sentinels (`u64::MAX` keys, never retired) give every real leaf a real
//! parent and grandparent, removing all root special cases.

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, free_node_raw, retire_node, HasHeader, Header, Restart, Smr,
};

use crate::{ConcurrentMap, Key, Value};

/// Tree node; a leaf iff `left` is null. `#[repr(C)]`, header first.
#[repr(C)]
pub struct BstNode {
    hdr: Header,
    /// Routing key (internal) or element key (leaf).
    pub key: Key,
    /// Element value (leaves only; immutable after publication).
    pub value: Value,
    /// Left child (`key < self.key`); null for leaves.
    pub left: AtomicPtr<BstNode>,
    /// Right child (`key >= self.key`); null for leaves.
    pub right: AtomicPtr<BstNode>,
    /// Set under `lock` before this node is unlinked.
    marked: AtomicBool,
    lock: AtomicBool,
}

// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for BstNode {}

impl BstNode {
    fn new_raw(key: Key, value: Value, left: *mut BstNode, right: *mut BstNode) -> BstNode {
        BstNode {
            hdr: Header::new(0, core::mem::size_of::<BstNode>()),
            key,
            value,
            left: AtomicPtr::new(left),
            right: AtomicPtr::new(right),
            marked: AtomicBool::new(false),
            lock: AtomicBool::new(false),
        }
    }

    fn alloc<S: Smr>(
        smr: &S,
        tid: usize,
        key: Key,
        value: Value,
        left: *mut BstNode,
        right: *mut BstNode,
    ) -> *mut BstNode {
        let mut n = Self::new_raw(key, value, left, right);
        n.hdr = Header::new(smr.current_era(), core::mem::size_of::<BstNode>());
        alloc_node(smr, tid, n)
    }

    #[inline(always)]
    fn is_leaf(&self) -> bool {
        self.left.load(Ordering::Acquire).is_null()
    }

    /// The child edge `key` routes through.
    #[inline(always)]
    fn child_for(&self, key: Key) -> &AtomicPtr<BstNode> {
        if key < self.key {
            &self.left
        } else {
            &self.right
        }
    }

    fn lock<'a, S: Smr>(&'a self, smr: &S, tid: usize) -> Result<BstLockGuard<'a>, Restart> {
        loop {
            if self
                .lock
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(BstLockGuard { lock: &self.lock });
            }
            smr.check_restart(tid)?;
            core::hint::spin_loop();
        }
    }
}

struct BstLockGuard<'a> {
    lock: &'a AtomicBool,
}

impl Drop for BstLockGuard<'_> {
    fn drop(&mut self) {
        self.lock.store(false, Ordering::Release);
    }
}

/// Hazard slots the descent rotates over (the domain must have at least
/// this many).
pub const SLOTS_REQUIRED: usize = 3;

/// Result of a descent: grandparent, parent and leaf, all protected (or
/// immortal sentinels).
struct SearchResult {
    gpar: *mut BstNode,
    par: *mut BstNode,
    leaf: *mut BstNode,
}

/// The external BST.
pub struct ExtBst<S: Smr> {
    /// Immortal sentinel above `root_holder` (grandparent for splices near
    /// the top).
    grand_root: *mut BstNode,
    /// Immortal sentinel whose `left` is the tree proper.
    root_holder: *mut BstNode,
    smr: Arc<S>,
}

// SAFETY: shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for ExtBst<S> {}
// SAFETY: every shared mutation is an atomic store under the node locks,
// and every dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for ExtBst<S> {}

impl<S: Smr> ExtBst<S> {
    /// Creates an empty tree. Keys must be `< u64::MAX - 1`.
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "ExtBst");
        let sent_leaf_a = Box::into_raw(Box::new(BstNode::new_raw(
            u64::MAX,
            0,
            core::ptr::null_mut(),
            core::ptr::null_mut(),
        )));
        let sent_leaf_b = Box::into_raw(Box::new(BstNode::new_raw(
            u64::MAX,
            0,
            core::ptr::null_mut(),
            core::ptr::null_mut(),
        )));
        let sent_leaf_c = Box::into_raw(Box::new(BstNode::new_raw(
            u64::MAX,
            0,
            core::ptr::null_mut(),
            core::ptr::null_mut(),
        )));
        let root_holder = Box::into_raw(Box::new(BstNode::new_raw(
            u64::MAX,
            0,
            sent_leaf_a,
            sent_leaf_b,
        )));
        let grand_root = Box::into_raw(Box::new(BstNode::new_raw(
            u64::MAX,
            0,
            root_holder,
            sent_leaf_c,
        )));
        ExtBst {
            grand_root,
            root_holder,
            smr,
        }
    }

    /// Optimistic descent to the leaf covering `key`.
    ///
    /// Hazard slots rotate over {0,1,2}: at any time the grandparent,
    /// parent and current node hold three distinct slots; sentinels are
    /// immortal and need no protection.
    fn search(&self, tid: usize, key: Key) -> Result<SearchResult, Restart> {
        let row = self.smr.row(tid);
        'retry: loop {
            let mut gpar = self.grand_root;
            let mut par = self.root_holder;
            let mut slot = 0usize;
            // SAFETY: root_holder is immortal.
            let mut curr = self
                .smr
                .protect_in(&row, slot, unsafe { (*par).child_for(key) })?;
            loop {
                // Reachability re-check (see module docs).
                // SAFETY: par is a sentinel or protected two slots ago.
                if unsafe { &*par }.marked.load(Ordering::Acquire) {
                    continue 'retry;
                }
                if curr.is_null() {
                    // Torn descent (child replaced under us): restart.
                    continue 'retry;
                }
                // Unmarked par ⇒ live edge ⇒ curr reachable after its
                // reservation — safe to dereference.
                self.smr.check_live(curr);
                // SAFETY: curr is protected in `slot`.
                let curr_ref = unsafe { &*curr };
                if curr_ref.is_leaf() {
                    return Ok(SearchResult {
                        gpar,
                        par,
                        leaf: curr,
                    });
                }
                gpar = par;
                par = curr;
                slot = (slot + 1) % 3;
                curr = self.smr.protect_in(&row, slot, curr_ref.child_for(key))?;
            }
        }
    }

    fn try_insert(&self, tid: usize, key: Key, value: Value) -> Result<bool, Restart> {
        let sr = self.search(tid, key)?;
        // SAFETY: leaf protected by search.
        let leaf_ref = unsafe { &*sr.leaf };
        if leaf_ref.key == key {
            return Ok(false);
        }
        // SAFETY: par protected by search (or immortal sentinel).
        let par_ref = unsafe { &*sr.par };
        let _pl = par_ref.lock(&*self.smr, tid)?;
        if par_ref.marked.load(Ordering::Acquire)
            || par_ref.child_for(key).load(Ordering::Acquire) != sr.leaf
        {
            return Err(Restart);
        }
        self.smr
            .begin_write(tid, &[as_header(sr.par), as_header(sr.leaf)])?;
        let new_leaf = BstNode::alloc(
            &*self.smr,
            tid,
            key,
            value,
            core::ptr::null_mut(),
            core::ptr::null_mut(),
        );
        // Routing node: larger key routes right.
        let internal = if key < leaf_ref.key {
            BstNode::alloc(&*self.smr, tid, leaf_ref.key, 0, new_leaf, sr.leaf)
        } else {
            BstNode::alloc(&*self.smr, tid, key, 0, sr.leaf, new_leaf)
        };
        par_ref.child_for(key).store(internal, Ordering::Release);
        self.smr.end_write(tid);
        Ok(true)
    }

    fn try_remove(&self, tid: usize, key: Key) -> Result<bool, Restart> {
        let sr = self.search(tid, key)?;
        // SAFETY: leaf protected by search.
        if unsafe { &*sr.leaf }.key != key {
            return Ok(false);
        }
        // SAFETY: gpar protected by search (or an immortal sentinel).
        let gpar_ref = unsafe { &*sr.gpar };
        // SAFETY: par protected by search (or an immortal sentinel).
        let par_ref = unsafe { &*sr.par };
        // Lock order: ancestor before descendant (uniform across ops).
        let _gl = gpar_ref.lock(&*self.smr, tid)?;
        let _pl = par_ref.lock(&*self.smr, tid)?;
        // The gpar→par edge is the one the descent routed `key` through —
        // NOT `child_for(par.key)`, which misroutes when routing keys
        // collide (e.g. the u64::MAX sentinels).
        let par_edge = gpar_ref.child_for(key);
        if gpar_ref.marked.load(Ordering::Acquire)
            || par_ref.marked.load(Ordering::Acquire)
            || par_edge.load(Ordering::Acquire) != sr.par
            || par_ref.child_for(key).load(Ordering::Acquire) != sr.leaf
        {
            return Err(Restart);
        }
        // Sibling is stable: changing it requires par's lock, which we hold.
        let sibling = if key < par_ref.key {
            par_ref.right.load(Ordering::Acquire)
        } else {
            par_ref.left.load(Ordering::Acquire)
        };
        self.smr.begin_write(
            tid,
            &[
                as_header(sr.gpar),
                as_header(sr.par),
                as_header(sr.leaf),
                as_header(sibling),
            ],
        )?;
        par_ref.marked.store(true, Ordering::Release);
        par_edge.store(sibling, Ordering::Release);
        // SAFETY: both nodes unlinked under locks — retired exactly once.
        unsafe {
            retire_node(&*self.smr, tid, sr.par);
            retire_node(&*self.smr, tid, sr.leaf);
        }
        self.smr.end_write(tid);
        Ok(true)
    }

    fn try_get(&self, tid: usize, key: Key) -> Result<Option<Value>, Restart> {
        let sr = self.search(tid, key)?;
        // SAFETY: leaf protected by search.
        let leaf_ref = unsafe { &*sr.leaf };
        if leaf_ref.key == key {
            Ok(Some(leaf_ref.value))
        } else {
            Ok(None)
        }
    }

    /// In-order key census for test validation (requires quiescence).
    pub fn keys_quiescent(&self) -> Vec<Key> {
        fn walk(p: *mut BstNode, out: &mut Vec<Key>) {
            if p.is_null() {
                return;
            }
            // SAFETY: caller guarantees no concurrent mutation.
            let n = unsafe { &*p };
            if n.is_leaf() {
                if n.key != u64::MAX {
                    out.push(n.key);
                }
                return;
            }
            walk(n.left.load(Ordering::Acquire), out);
            walk(n.right.load(Ordering::Acquire), out);
        }
        let mut out = Vec::new();
        // SAFETY: quiescence contract.
        walk(
            unsafe { &*self.root_holder }.left.load(Ordering::Acquire),
            &mut out,
        );
        out
    }
}

impl<S: Smr> ConcurrentMap<S> for ExtBst<S> {
    const DS_NAME: &'static str = "DGT";

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

impl<S: Smr> Drop for ExtBst<S> {
    fn drop(&mut self) {
        fn free(p: *mut BstNode) {
            if p.is_null() {
                return;
            }
            // SAFETY: exclusive access in Drop. Children are read out
            // before the node is freed (the slot may be slab-backed).
            let (l, r) = unsafe {
                (
                    (*p).left.load(Ordering::Relaxed),
                    (*p).right.load(Ordering::Relaxed),
                )
            };
            // SAFETY: exclusive access in Drop; each node hangs off exactly
            // one parent edge, so it is freed once.
            unsafe { free_node_raw(p) };
            free(l);
            free(r);
        }
        free(self.grand_root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::{HazardPtr, HazardPtrPop, SmrConfig};

    #[test]
    fn roundtrip_with_classic_hp() {
        let smr = HazardPtr::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
        let t = ExtBst::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for k in [50u64, 25, 75, 10, 30, 60, 90] {
            assert!(t.insert(0, k, k + 1));
        }
        assert!(!t.insert(0, 50, 0), "duplicate rejected");
        for k in [50u64, 25, 75, 10, 30, 60, 90] {
            assert_eq!(t.get(0, k), Some(k + 1));
        }
        assert!(!t.contains(0, 55));
        assert_eq!(t.keys_quiescent(), vec![10, 25, 30, 50, 60, 75, 90]);
        drop(reg);
    }

    #[test]
    fn delete_splices_and_retires() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(2).with_reclaim_freq(4));
        let t = ExtBst::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for k in 1..=20u64 {
            assert!(t.insert(0, k, k));
        }
        for k in 1..=20u64 {
            assert!(t.remove(0, k), "remove {k}");
            assert!(!t.contains(0, k));
        }
        assert!(t.keys_quiescent().is_empty());
        // Each delete retires a routing node + a leaf. Retires are
        // accounted at seal points, and binned fills keep several partial
        // blocks open — flush (which seals every bin) before the exact
        // count.
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().retired_nodes, 40);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn empty_tree_queries() {
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let t = ExtBst::new(Arc::clone(&smr));
        let reg = smr.register(0);
        assert!(!t.contains(0, 5));
        assert!(!t.remove(0, 5));
        assert!(t.insert(0, 5, 50));
        assert!(t.remove(0, 5));
        assert!(!t.contains(0, 5));
        drop(reg);
    }

    #[test]
    fn sentinel_key_collision_regression() {
        // Regression: validating the gpar→par edge via child_for(par.key)
        // misroutes when par's routing key equals gpar's (u64::MAX
        // sentinels at the top of the tree) — remove(…) span forever.
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let t = ExtBst::new(Arc::clone(&smr));
        let reg = smr.register(0);
        assert!(t.insert(0, 5, 50));
        assert!(t.remove(0, 5), "single-key removal under the sentinels");
        assert!(!t.contains(0, 5));
        // Again at depth 1 with the sentinel as grandparent.
        assert!(t.insert(0, 7, 70));
        assert!(t.insert(0, 3, 30));
        assert!(t.remove(0, 7));
        assert!(t.remove(0, 3));
        assert!(t.keys_quiescent().is_empty());
        drop(reg);
    }

    #[test]
    fn interleaved_insert_delete_keeps_order() {
        let smr = HazardPtr::new(SmrConfig::for_tests(1).with_reclaim_freq(16));
        let t = ExtBst::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for k in 0..200u64 {
            t.insert(0, k * 7 % 199, k);
        }
        for k in 0..100u64 {
            t.remove(0, k);
        }
        let keys = t.keys_quiescent();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "in-order walk must be sorted + unique");
        assert!(keys.iter().all(|&k| k >= 100), "deleted range is gone");
        drop(reg);
    }
}
