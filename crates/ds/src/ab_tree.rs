//! `ABT` — a relaxed (a,b)-tree after Brown (2017), adapted to Rust with
//! per-node locks and **copy-on-write node replacement** instead of
//! LLX/SCX, preserving the property the SMR benchmark cares about —
//! fat-node traversals where *every* update retires node copies.
//!
//! * Leaves hold up to [`B`] sorted key/value pairs and are immutable after
//!   publication: updates install a modified copy in the parent's child
//!   array and retire the old leaf.
//! * Internal nodes have immutable separator arrays; only their child
//!   *pointers* mutate in place, under the node lock.
//! * Inserts split **preemptively, top-down** (Guibas–Sedgewick style): the
//!   first full node met during the descent is split under its (then
//!   non-full) parent, and the operation retries. This keeps every
//!   structural change local to a grandparent/parent/child window — no
//!   upward cascades — at the cost of relaxed balance.
//! * Deletes shrink leaves in place (COW); empty leaves are spliced out of
//!   their parent, and a parent left childless is replaced by an empty
//!   leaf. No merging/borrowing — also relaxed, as in Brown's trees.
//!
//! Traversal safety follows the lazy-list argument: protect each child
//! edge, then re-check the parent's `marked` flag (set under lock before
//! any unlink/replace).

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, dealloc_node_unpublished, free_node_raw, retire_node, HasHeader, Header,
    Restart, Smr,
};

use crate::{ConcurrentMap, Key, Value};

/// Maximum children per internal node / keys per leaf.
pub const B: usize = 16;

/// Tree node (leaf or internal). `#[repr(C)]`, header first.
#[repr(C)]
pub struct AbNode {
    hdr: Header,
    /// Leaf: element keys (`len` used). Internal: separators (`len - 1`
    /// used); child `i` covers keys `k` with `keys[i-1] <= k < keys[i]`
    /// under the convention "separator `s <= key` routes right".
    keys: [Key; B],
    /// Leaf payloads (`len` used); unused for internals.
    vals: [Value; B],
    /// Internal children (`len` used); null for leaves. Mutated in place
    /// only under `lock`.
    children: [AtomicPtr<AbNode>; B],
    /// Leaf: number of keys. Internal: number of children.
    len: u16,
    is_leaf: bool,
    /// Set under `lock` before this node is unlinked or COW-replaced.
    marked: AtomicBool,
    lock: AtomicBool,
}

// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for AbNode {}

// Interior mutability is the point: each use stamps out a fresh array of
// independent atomics (a `static` would alias one shared array).
#[allow(clippy::declare_interior_mutable_const)]
const NULL_CHILDREN: [AtomicPtr<AbNode>; B] = [const { AtomicPtr::new(core::ptr::null_mut()) }; B];

impl AbNode {
    fn leaf<S: Smr>(smr: &S, tid: usize, keys: &[Key], vals: &[Value]) -> *mut AbNode {
        debug_assert!(keys.len() <= B && keys.len() == vals.len());
        debug_assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf keys sorted");
        let mut k = [0u64; B];
        let mut v = [0u64; B];
        k[..keys.len()].copy_from_slice(keys);
        v[..vals.len()].copy_from_slice(vals);
        alloc_node(
            smr,
            tid,
            AbNode {
                hdr: Header::new(smr.current_era(), core::mem::size_of::<AbNode>()),
                keys: k,
                vals: v,
                children: NULL_CHILDREN,
                len: keys.len() as u16,
                is_leaf: true,
                marked: AtomicBool::new(false),
                lock: AtomicBool::new(false),
            },
        )
    }

    fn internal<S: Smr>(smr: &S, tid: usize, seps: &[Key], kids: &[*mut AbNode]) -> *mut AbNode {
        debug_assert!(kids.len() <= B && seps.len() + 1 == kids.len());
        debug_assert!(seps.windows(2).all(|w| w[0] < w[1]), "separators sorted");
        let mut k = [0u64; B];
        k[..seps.len()].copy_from_slice(seps);
        let children = NULL_CHILDREN;
        for (i, &c) in kids.iter().enumerate() {
            children[i].store(c, Ordering::Relaxed);
        }
        alloc_node(
            smr,
            tid,
            AbNode {
                hdr: Header::new(smr.current_era(), core::mem::size_of::<AbNode>()),
                keys: k,
                vals: [0u64; B],
                children,
                len: kids.len() as u16,
                is_leaf: false,
                marked: AtomicBool::new(false),
                lock: AtomicBool::new(false),
            },
        )
    }

    #[inline(always)]
    fn is_full(&self) -> bool {
        self.len as usize == B
    }

    /// Child index `key` routes through (internal nodes).
    #[inline(always)]
    fn route(&self, key: Key) -> usize {
        debug_assert!(!self.is_leaf);
        let seps = &self.keys[..self.len as usize - 1];
        seps.partition_point(|&s| s <= key)
    }

    /// Separators as a slice.
    fn seps(&self) -> &[Key] {
        &self.keys[..self.len as usize - 1]
    }

    fn lock<'a, S: Smr>(&'a self, smr: &S, tid: usize) -> Result<AbLockGuard<'a>, Restart> {
        loop {
            if self
                .lock
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return Ok(AbLockGuard { lock: &self.lock });
            }
            smr.check_restart(tid)?;
            core::hint::spin_loop();
        }
    }
}

struct AbLockGuard<'a> {
    lock: &'a AtomicBool,
}

impl Drop for AbLockGuard<'_> {
    fn drop(&mut self) {
        self.lock.store(false, Ordering::Release);
    }
}

/// Descent position: grandparent, parent, current node, and the child
/// indices taken (`gi`: gpar→par edge, `pi`: par→curr edge).
struct Descent {
    gpar: *mut AbNode,
    par: *mut AbNode,
    curr: *mut AbNode,
    pi: usize,
}

/// The relaxed copy-on-write (a,b)-tree.
pub struct AbTree<S: Smr> {
    /// Immortal single-child anchor; `children[0]` is the root.
    root_holder: *mut AbNode,
    smr: Arc<S>,
}

// SAFETY: shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for AbTree<S> {}
// SAFETY: every shared mutation is an atomic store or CAS under the node
// locks, and every dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for AbTree<S> {}

/// Hazard slots the descent rotates over (the domain must have at least
/// this many).
pub const SLOTS_REQUIRED: usize = 3;

enum DescendOutcome {
    /// Reached a leaf (protected); splitting was not required.
    Leaf(Descent),
    /// Split a full node and retried — caller restarts the operation.
    SplitDone,
}

impl<S: Smr> AbTree<S> {
    /// Creates an empty tree.
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "AbTree");
        // The anchor and initial empty leaf live outside domain accounting
        // only in the anchor's case: the leaf is COW-replaced like any
        // other, so it must be a tracked allocation.
        let leaf = AbNode::leaf(&*smr, 0, &[], &[]);
        let children = NULL_CHILDREN;
        children[0].store(leaf, Ordering::Relaxed);
        let root_holder = Box::into_raw(Box::new(AbNode {
            hdr: Header::new(0, core::mem::size_of::<AbNode>()),
            keys: [0u64; B],
            vals: [0u64; B],
            children,
            len: 1,
            is_leaf: false,
            marked: AtomicBool::new(false),
            lock: AtomicBool::new(false),
        }));
        AbTree { root_holder, smr }
    }

    /// Descends toward `key`. With `split_full`, the first full node met is
    /// split (under its guaranteed-non-full parent) and `SplitDone` is
    /// returned so the caller retries.
    fn descend(&self, tid: usize, key: Key, split_full: bool) -> Result<DescendOutcome, Restart> {
        let row = self.smr.row(tid);
        'retry: loop {
            let mut gpar: *mut AbNode = core::ptr::null_mut();
            let mut par = self.root_holder;
            let mut pi = 0usize;
            let mut slot = 0usize;
            // SAFETY: root_holder is immortal.
            let mut curr = self
                .smr
                .protect_in(&row, slot, unsafe { &(*par).children[0] })?;
            loop {
                // SAFETY: par is the anchor or protected two slots ago.
                if unsafe { &*par }.marked.load(Ordering::Acquire) {
                    continue 'retry;
                }
                if curr.is_null() {
                    continue 'retry; // torn descent
                }
                // Unmarked par ⇒ live edge ⇒ curr reachable after its
                // reservation — safe to dereference.
                self.smr.check_live(curr);
                // SAFETY: curr protected in `slot`.
                let curr_ref = unsafe { &*curr };
                if split_full && curr_ref.is_full() {
                    self.split(tid, gpar, par, pi, curr)?;
                    return Ok(DescendOutcome::SplitDone);
                }
                if curr_ref.is_leaf {
                    return Ok(DescendOutcome::Leaf(Descent {
                        gpar,
                        par,
                        curr,
                        pi,
                    }));
                }
                let ci = curr_ref.route(key);
                gpar = par;
                par = curr;
                pi = ci;
                slot = (slot + 1) % 3;
                curr = self.smr.protect_in(&row, slot, &curr_ref.children[ci])?;
            }
        }
    }

    /// Splits full node `node` (child `pi` of `par`). The parent gains one
    /// child via COW replacement under `gpar`; splitting the root wraps it
    /// in a fresh root under the anchor instead.
    fn split(
        &self,
        tid: usize,
        gpar: *mut AbNode,
        par: *mut AbNode,
        pi: usize,
        node: *mut AbNode,
    ) -> Result<(), Restart> {
        // SAFETY: node protected by descend.
        let node_ref = unsafe { &*node };
        // SAFETY: par is protected by descend, or is the immortal anchor.
        let par_ref = unsafe { &*par };
        let at_root = par == self.root_holder;

        // Lock top-down; the anchor has no grandparent.
        let _gl = if at_root {
            None
        } else {
            // SAFETY: gpar protected by descend (non-null below the anchor).
            Some(unsafe { &*gpar }.lock(&*self.smr, tid)?)
        };
        let _pl = par_ref.lock(&*self.smr, tid)?;
        let _nl = node_ref.lock(&*self.smr, tid)?;

        if par_ref.marked.load(Ordering::Acquire)
            || node_ref.marked.load(Ordering::Acquire)
            || par_ref.children[pi].load(Ordering::Acquire) != node
            || (!at_root && par_ref.is_full())
            || !node_ref.is_full()
        {
            return Err(Restart);
        }
        if !at_root {
            // SAFETY: gpar locked above.
            let gpar_ref = unsafe { &*gpar };
            if gpar_ref.marked.load(Ordering::Acquire) {
                return Err(Restart);
            }
        }

        // Build the two halves.
        let (left, right, sep) = if node_ref.is_leaf {
            let n = node_ref.len as usize;
            let m = n / 2;
            let l = AbNode::leaf(&*self.smr, tid, &node_ref.keys[..m], &node_ref.vals[..m]);
            let r = AbNode::leaf(&*self.smr, tid, &node_ref.keys[m..n], &node_ref.vals[m..n]);
            (l, r, node_ref.keys[m])
        } else {
            let n = node_ref.len as usize; // children
            let m = n / 2;
            let kids: Vec<*mut AbNode> = (0..n)
                .map(|i| node_ref.children[i].load(Ordering::Acquire))
                .collect();
            let l = AbNode::internal(&*self.smr, tid, &node_ref.seps()[..m - 1], &kids[..m]);
            let r = AbNode::internal(&*self.smr, tid, &node_ref.seps()[m..], &kids[m..]);
            (l, r, node_ref.seps()[m - 1])
        };

        let mut wset = [core::ptr::null_mut::<Header>(); 3];
        let mut wn = 0;
        if !at_root {
            wset[wn] = as_header(gpar);
            wn += 1;
        }
        wset[wn] = as_header(par);
        wn += 1;
        wset[wn] = as_header(node);
        wn += 1;
        if let Err(r) = self.smr.begin_write(tid, &wset[..wn]) {
            // Unpublished halves: free directly.
            // SAFETY: never shared.
            unsafe {
                dealloc_node_unpublished(&*self.smr, tid, left);
                dealloc_node_unpublished(&*self.smr, tid, right);
            }
            return Err(r);
        }

        if at_root {
            // Wrap in a new root: the anchor keeps exactly one child.
            let new_root = AbNode::internal(&*self.smr, tid, &[sep], &[left, right]);
            node_ref.marked.store(true, Ordering::Release);
            par_ref.children[0].store(new_root, Ordering::Release);
            // SAFETY: unlinked under locks — retired exactly once.
            unsafe { retire_node(&*self.smr, tid, node) };
        } else {
            // COW the parent with `node` replaced by `left`+`right`.
            let plen = par_ref.len as usize;
            let mut seps = Vec::with_capacity(plen);
            seps.extend_from_slice(par_ref.seps());
            seps.insert(pi, sep);
            let mut kids: Vec<*mut AbNode> = (0..plen)
                .map(|i| par_ref.children[i].load(Ordering::Acquire))
                .collect();
            kids[pi] = left;
            kids.insert(pi + 1, right);
            let new_par = AbNode::internal(&*self.smr, tid, &seps, &kids);
            // SAFETY: gpar locked (non-anchor path).
            let gpar_ref = unsafe { &*gpar };
            let gi = gpar_ref.route_to_child(par);
            let Some(gi) = gi else {
                // Parent edge moved under us (it was validated above, so
                // this indicates a racing replacement): undo and retry.
                // SAFETY: never shared.
                unsafe {
                    dealloc_node_unpublished(&*self.smr, tid, left);
                    dealloc_node_unpublished(&*self.smr, tid, right);
                    dealloc_node_unpublished(&*self.smr, tid, new_par);
                }
                self.smr.end_write(tid);
                return Err(Restart);
            };
            par_ref.marked.store(true, Ordering::Release);
            node_ref.marked.store(true, Ordering::Release);
            gpar_ref.children[gi].store(new_par, Ordering::Release);
            // SAFETY: unlinked under locks — retired exactly once each.
            unsafe {
                retire_node(&*self.smr, tid, par);
                retire_node(&*self.smr, tid, node);
            }
        }
        self.smr.end_write(tid);
        Ok(())
    }

    fn try_insert(&self, tid: usize, key: Key, value: Value) -> Result<bool, Restart> {
        let d = match self.descend(tid, key, true)? {
            DescendOutcome::SplitDone => return Err(Restart),
            DescendOutcome::Leaf(d) => d,
        };
        // SAFETY: leaf protected by descend.
        let leaf_ref = unsafe { &*d.curr };
        let n = leaf_ref.len as usize;
        if leaf_ref.keys[..n].binary_search(&key).is_ok() {
            return Ok(false);
        }
        debug_assert!(n < B, "full leaves are split during the descent");
        // SAFETY: par protected (or anchor).
        let par_ref = unsafe { &*d.par };
        let _pl = par_ref.lock(&*self.smr, tid)?;
        if par_ref.marked.load(Ordering::Acquire)
            || par_ref.children[d.pi].load(Ordering::Acquire) != d.curr
        {
            return Err(Restart);
        }
        self.smr
            .begin_write(tid, &[as_header(d.par), as_header(d.curr)])?;
        let pos = leaf_ref.keys[..n].partition_point(|&k| k < key);
        let mut keys = Vec::with_capacity(n + 1);
        keys.extend_from_slice(&leaf_ref.keys[..pos]);
        keys.push(key);
        keys.extend_from_slice(&leaf_ref.keys[pos..n]);
        let mut vals = Vec::with_capacity(n + 1);
        vals.extend_from_slice(&leaf_ref.vals[..pos]);
        vals.push(value);
        vals.extend_from_slice(&leaf_ref.vals[pos..n]);
        let new_leaf = AbNode::leaf(&*self.smr, tid, &keys, &vals);
        leaf_ref.marked.store(true, Ordering::Release);
        par_ref.children[d.pi].store(new_leaf, Ordering::Release);
        // SAFETY: COW-replaced under the parent lock — retired exactly once.
        unsafe { retire_node(&*self.smr, tid, d.curr) };
        self.smr.end_write(tid);
        Ok(true)
    }

    fn try_remove(&self, tid: usize, key: Key) -> Result<bool, Restart> {
        let d = match self.descend(tid, key, false)? {
            DescendOutcome::SplitDone => unreachable!("split disabled"),
            DescendOutcome::Leaf(d) => d,
        };
        // SAFETY: leaf protected by descend.
        let leaf_ref = unsafe { &*d.curr };
        let n = leaf_ref.len as usize;
        let Ok(pos) = leaf_ref.keys[..n].binary_search(&key) else {
            return Ok(false);
        };
        // SAFETY: par protected (or anchor).
        let par_ref = unsafe { &*d.par };

        if n > 1 || d.par == self.root_holder {
            // Shrink the leaf in place via COW (the root leaf may go empty).
            let _pl = par_ref.lock(&*self.smr, tid)?;
            if par_ref.marked.load(Ordering::Acquire)
                || par_ref.children[d.pi].load(Ordering::Acquire) != d.curr
            {
                return Err(Restart);
            }
            self.smr
                .begin_write(tid, &[as_header(d.par), as_header(d.curr)])?;
            let mut keys = Vec::with_capacity(n - 1);
            keys.extend_from_slice(&leaf_ref.keys[..pos]);
            keys.extend_from_slice(&leaf_ref.keys[pos + 1..n]);
            let mut vals = Vec::with_capacity(n - 1);
            vals.extend_from_slice(&leaf_ref.vals[..pos]);
            vals.extend_from_slice(&leaf_ref.vals[pos + 1..n]);
            let new_leaf = AbNode::leaf(&*self.smr, tid, &keys, &vals);
            leaf_ref.marked.store(true, Ordering::Release);
            par_ref.children[d.pi].store(new_leaf, Ordering::Release);
            // SAFETY: COW-replaced under the parent lock.
            unsafe { retire_node(&*self.smr, tid, d.curr) };
            self.smr.end_write(tid);
            return Ok(true);
        }

        // Last key of a non-root leaf: splice the leaf out of its parent.
        // SAFETY: gpar protected by descend (non-null below the anchor).
        let gpar_ref = unsafe { &*d.gpar };
        let _gl = gpar_ref.lock(&*self.smr, tid)?;
        let _pl = par_ref.lock(&*self.smr, tid)?;
        if gpar_ref.marked.load(Ordering::Acquire)
            || par_ref.marked.load(Ordering::Acquire)
            || par_ref.children[d.pi].load(Ordering::Acquire) != d.curr
        {
            return Err(Restart);
        }
        let Some(gi) = gpar_ref.route_to_child(d.par) else {
            return Err(Restart);
        };
        self.smr.begin_write(
            tid,
            &[as_header(d.gpar), as_header(d.par), as_header(d.curr)],
        )?;
        let plen = par_ref.len as usize;
        let replacement = if plen == 1 {
            // Parent would become childless: replace it with an empty leaf.
            AbNode::leaf(&*self.smr, tid, &[], &[])
        } else if plen == 2 {
            // Parent with one remaining child: splice the parent out too.
            par_ref.children[1 - d.pi].load(Ordering::Acquire)
        } else {
            let mut seps = Vec::with_capacity(plen - 2);
            let mut kids = Vec::with_capacity(plen - 1);
            for i in 0..plen {
                if i != d.pi {
                    kids.push(par_ref.children[i].load(Ordering::Acquire));
                }
            }
            // Removing child pi removes separator max(pi-1, 0)… precisely:
            // separators are between children; drop the one adjacent to pi.
            let drop_sep = if d.pi == 0 { 0 } else { d.pi - 1 };
            for (i, &s) in par_ref.seps().iter().enumerate() {
                if i != drop_sep {
                    seps.push(s);
                }
            }
            AbNode::internal(&*self.smr, tid, &seps, &kids)
        };
        par_ref.marked.store(true, Ordering::Release);
        leaf_ref.marked.store(true, Ordering::Release);
        gpar_ref.children[gi].store(replacement, Ordering::Release);
        // SAFETY: unlinked under locks — retired exactly once each.
        unsafe {
            retire_node(&*self.smr, tid, d.par);
            retire_node(&*self.smr, tid, d.curr);
        }
        self.smr.end_write(tid);
        Ok(true)
    }

    fn try_get(&self, tid: usize, key: Key) -> Result<Option<Value>, Restart> {
        let d = match self.descend(tid, key, false)? {
            DescendOutcome::SplitDone => unreachable!("split disabled"),
            DescendOutcome::Leaf(d) => d,
        };
        // SAFETY: leaf protected by descend.
        let leaf_ref = unsafe { &*d.curr };
        let n = leaf_ref.len as usize;
        match leaf_ref.keys[..n].binary_search(&key) {
            Ok(i) => Ok(Some(leaf_ref.vals[i])),
            Err(_) => Ok(None),
        }
    }

    /// Sorted key census for test validation (requires quiescence).
    pub fn keys_quiescent(&self) -> Vec<Key> {
        fn walk(p: *mut AbNode, out: &mut Vec<Key>) {
            if p.is_null() {
                return;
            }
            // SAFETY: caller guarantees quiescence.
            let n = unsafe { &*p };
            if n.is_leaf {
                out.extend_from_slice(&n.keys[..n.len as usize]);
            } else {
                for i in 0..n.len as usize {
                    walk(n.children[i].load(Ordering::Acquire), out);
                }
            }
        }
        let mut out = Vec::new();
        // SAFETY: quiescence contract.
        walk(
            unsafe { &*self.root_holder }.children[0].load(Ordering::Acquire),
            &mut out,
        );
        out
    }
}

impl AbNode {
    /// Index of `child` in this internal node's child array, if present.
    fn route_to_child(&self, child: *mut AbNode) -> Option<usize> {
        (0..self.len as usize).find(|&i| self.children[i].load(Ordering::Acquire) == child)
    }
}

impl<S: Smr> ConcurrentMap<S> for AbTree<S> {
    const DS_NAME: &'static str = "ABT";

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

impl<S: Smr> Drop for AbTree<S> {
    fn drop(&mut self) {
        fn free(p: *mut AbNode) {
            if p.is_null() {
                return;
            }
            // Children are read out before the node is freed (the slot may
            // be slab-backed).
            let mut kids: [*mut AbNode; B] = [core::ptr::null_mut(); B];
            // SAFETY: exclusive access in Drop; `p` is a live tree node.
            let n = unsafe { &*p };
            let fanout = if n.is_leaf { 0 } else { n.len as usize };
            for (slot, child) in kids.iter_mut().zip(n.children.iter()).take(fanout) {
                *slot = child.load(Ordering::Relaxed);
            }
            // SAFETY: exclusive access in Drop; each node is reachable from
            // exactly one parent edge, so it is freed once, and `n` is dead.
            unsafe { free_node_raw(p) };
            for &c in &kids[..fanout] {
                free(c);
            }
        }
        free(self.root_holder);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::{EpochPop, HazardPtrPop, SmrConfig};

    #[test]
    fn inserts_across_splits_stay_sorted() {
        let smr = EpochPop::new(SmrConfig::for_tests(2).with_reclaim_freq(32));
        let t = AbTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        // Enough keys to force several levels of splits.
        for k in 0..500u64 {
            assert!(t.insert(0, (k * 37) % 1000, k), "insert {k}");
        }
        let keys = t.keys_quiescent();
        assert_eq!(keys.len(), 500);
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(keys, sorted, "tree walk must be sorted and duplicate-free");
        for k in 0..500u64 {
            assert_eq!(t.get(0, (k * 37) % 1000), Some(k));
        }
        drop(reg);
    }

    #[test]
    fn duplicate_insert_rejected() {
        let smr = EpochPop::new(SmrConfig::for_tests(1));
        let t = AbTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        assert!(t.insert(0, 42, 1));
        assert!(!t.insert(0, 42, 2));
        assert_eq!(t.get(0, 42), Some(1));
        drop(reg);
    }

    #[test]
    fn removals_shrink_and_splice() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(2).with_reclaim_freq(16));
        let t = AbTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for k in 0..300u64 {
            assert!(t.insert(0, k, k));
        }
        for k in 0..300u64 {
            assert!(t.remove(0, k), "remove {k}");
            assert!(!t.contains(0, k));
        }
        assert!(t.keys_quiescent().is_empty());
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn every_update_retires_a_copy() {
        // The COW design's defining property: even pure leaf updates
        // produce garbage, exercising reclamation on every write.
        // retire_batch 1 gives per-retire stats visibility (the default
        // batching only accounts at seal points).
        let smr = EpochPop::new(
            SmrConfig::for_tests(1)
                .with_reclaim_freq(1024)
                .with_retire_batch(1),
        );
        let t = AbTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for k in 0..10u64 {
            t.insert(0, k, k);
        }
        let retired_before = smr.stats().snapshot().retired_nodes;
        t.insert(0, 100, 1);
        assert!(
            smr.stats().snapshot().retired_nodes > retired_before,
            "a leaf insert must retire the old leaf copy"
        );
        drop(reg);
    }

    #[test]
    fn root_split_grows_height_once() {
        let smr = EpochPop::new(SmrConfig::for_tests(1));
        let t = AbTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        // Exactly B keys fill the root leaf; one more forces a root split.
        for k in 0..B as u64 {
            assert!(t.insert(0, k, k));
        }
        assert!(t.insert(0, B as u64, 0));
        let keys = t.keys_quiescent();
        assert_eq!(keys.len(), B + 1);
        assert!(keys.windows(2).all(|w| w[0] < w[1]));
        drop(reg);
    }

    #[test]
    fn ascending_and_descending_insertions() {
        // Sequential patterns hit the preemptive-split path repeatedly in
        // the same subtree — the relaxed-balance worst case.
        for descending in [false, true] {
            let smr = EpochPop::new(SmrConfig::for_tests(1).with_reclaim_freq(64));
            let t = AbTree::new(Arc::clone(&smr));
            let reg = smr.register(0);
            let n = 2_000u64;
            for i in 0..n {
                let k = if descending { n - 1 - i } else { i };
                assert!(t.insert(0, k, k));
            }
            let keys = t.keys_quiescent();
            assert_eq!(keys.len(), n as usize);
            assert!(keys.windows(2).all(|w| w[0] < w[1]));
            for k in (0..n).step_by(97) {
                assert_eq!(t.get(0, k), Some(k));
            }
            drop(reg);
        }
    }

    #[test]
    fn delete_to_empty_and_reuse() {
        let smr = EpochPop::new(SmrConfig::for_tests(1).with_reclaim_freq(32));
        let t = AbTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for round in 0..3 {
            for k in 0..100u64 {
                assert!(t.insert(0, k, k + round), "round {round} insert {k}");
            }
            for k in 0..100u64 {
                assert!(t.remove(0, k), "round {round} remove {k}");
            }
            assert!(t.keys_quiescent().is_empty(), "round {round} not empty");
        }
        drop(reg);
    }

    #[test]
    fn mixed_workload_consistency() {
        let smr = EpochPop::new(SmrConfig::for_tests(1).with_reclaim_freq(64));
        let t = AbTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        let mut model = std::collections::BTreeMap::new();
        let mut x = 88172645463325252u64;
        for _ in 0..5000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let key = x % 512;
            match x % 3 {
                0 => {
                    assert_eq!(t.insert(0, key, x), model.insert(key, x).is_none());
                }
                1 => {
                    assert_eq!(t.remove(0, key), model.remove(&key).is_some());
                }
                _ => {
                    assert_eq!(t.contains(0, key), model.contains_key(&key));
                }
            }
        }
        let keys = t.keys_quiescent();
        let expect: Vec<u64> = model.keys().copied().collect();
        assert_eq!(keys, expect);
        drop(reg);
    }
}
