//! `NMT` — lock-free external binary search tree, after Natarajan &
//! Mittal ("Fast Concurrent Lock-free Binary Search Trees", PPoPP 2014).
//!
//! Like [`crate::ext_bst`] the tree is leaf-oriented — all elements live
//! in leaves, internal nodes are pure routing — but deletion is lock-free:
//! instead of locking the parent and grandparent, a deleter *flags* the
//! parent→leaf edge (bit 1, the logical delete), *tags* the sibling edge
//! (bit 0, freezing it in place) and swings the ancestor→successor edge to
//! the sibling with a single CAS. Edge bits are sticky: a flagged or
//! tagged edge can never be written again (every mutating CAS expects a
//! clean pointer), so the detached region is frozen the moment the swing
//! succeeds and the swing winner can walk it deterministically.
//!
//! ## Retire discipline
//!
//! The swing winner owns the detached region — the subtree under
//! `successor` minus the subtree under the spliced-in sibling; it is the
//! chain of frozen internal nodes plus their flagged leaves. The winner
//! makes **two passes** over it: pass 1 sets every node's `unlinked` flag,
//! pass 2 retires. Traversals re-check `parent.unlinked` *after*
//! protecting a child: seeing it clear proves pass 1 (and therefore every
//! retire of a region containing the parent) had not completed when the
//! child's reservation was already published, so no sweep can have missed
//! it — the same reachable-after-reservation argument as
//! [`crate::ext_bst`]'s `marked` re-check, generalized to multi-node
//! detaches.
//!
//! Because edges carry tag/flag bits that traversals must pass *through*
//! (frozen edges never change, so restarting on them would livelock),
//! hazards are published for the *clean* pointer via a local relay and
//! validated by re-reading the raw edge.
//!
//! ## Roles name slots; one reservation per node visited
//!
//! Seek's four roles (ancestor, successor, parent, leaf) each name the
//! slot, among the five seek slots, that their node was read into; the
//! immortal `root` and `s_child` sentinels name none. Shifting the roles
//! down a level renames slot indices and stores nothing, so the one
//! reservation per level is the validated edge read, into a slot no role
//! names (four roles name at most four of five). A node stays reserved
//! from its read until no role names it, and a descent to depth *d* costs
//! *d* protects. The read takes the first unnamed slot *after* the one
//! read last, so a descent cycles through all five: taking the lowest
//! would leave slot 4 untouched on clean paths, holding a word from some
//! earlier operation, and under the era schemes such a stale era pins
//! every node alive at it (HazardEraPOP's garbage on `tree-mixed` grew
//! fivefold that way).
//!
//! Remove pins its victim leaf in a sixth slot across the cleanup loop so
//! the pointer-equality "has someone finished my detach?" check cannot be
//! confused by address reuse — hence [`SLOTS_REQUIRED`] = 6.
//!
//! `cleanup` acts only on a parent with a flagged edge. Its callers help
//! when their edge still leads to their leaf, but the edge can be back on
//! the leaf *clean* — an insert below it and the delete of that key came
//! and went — and a swing from there would detach the parent's live other
//! subtree.

use core::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, dealloc_node_unpublished, free_node_raw, retire_node, HasHeader, Header,
    Restart, Row, Smr,
};

use crate::marked::unmarked;
use crate::{ConcurrentMap, Key, Value};

/// Hazard slots the tree uses (5 seek slots + pinned victim).
pub const SLOTS_REQUIRED: usize = 6;

/// Slots 0..SEEK_SLOTS hold seek's reservations: four roles plus the
/// edge being read, which always finds a slot no role names.
const SEEK_SLOTS: usize = 5;
/// The slot a sentinel role names: none (`root` and `s_child` are
/// immortal and never reserved).
const IMMORTAL: usize = SEEK_SLOTS;
/// Remove's victim pin, outside the seek slots.
const SLOT_VICTIM: usize = 5;

/// Edge bit 0: the edge is frozen in place (sibling of a pending delete).
const TAG: usize = 1;
/// Edge bit 1: the pointed-to leaf is logically deleted.
const FLAG: usize = 2;

/// Smallest sentinel key; user keys must stay below it.
pub const INF0: Key = u64::MAX - 2;
const INF1: Key = u64::MAX - 1;
const INF2: Key = u64::MAX;

#[inline(always)]
fn is_tagged(p: *mut NmNode) -> bool {
    p as usize & TAG != 0
}

#[inline(always)]
fn is_flagged(p: *mut NmNode) -> bool {
    p as usize & FLAG != 0
}

#[inline(always)]
fn with_tag(p: *mut NmNode) -> *mut NmNode {
    (p as usize | TAG) as *mut NmNode
}

/// The first seek slot after `last`, cyclically, that none of `roles`
/// names.
#[inline(always)]
fn next_unnamed_slot(roles: [usize; 4], last: usize) -> usize {
    let named = roles.iter().fold(0u32, |m, &s| m | 1 << s);
    let free = !named & ((1 << SEEK_SLOTS) - 1);
    debug_assert!(free != 0, "four roles name at most four of five slots");
    let after = free & !((2 << last) - 1);
    (if after != 0 { after } else { free }).trailing_zeros() as usize
}

#[inline(always)]
fn with_flag(p: *mut NmNode) -> *mut NmNode {
    (p as usize | FLAG) as *mut NmNode
}

/// Tree node; a leaf iff `left` is null. `#[repr(C)]`, header first.
#[repr(C)]
pub struct NmNode {
    hdr: Header,
    /// Routing key (internal) or element key (leaf).
    pub key: Key,
    /// Element value (leaves only; immutable after publication).
    pub value: Value,
    /// Left child (`key < self.key`); low bits carry TAG/FLAG.
    pub left: AtomicPtr<NmNode>,
    /// Right child (`key >= self.key`); low bits carry TAG/FLAG.
    pub right: AtomicPtr<NmNode>,
    /// Set by the swing winner's pass 1, strictly before any retire of the
    /// detached region (see module docs).
    unlinked: AtomicBool,
}

// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for NmNode {}

impl NmNode {
    fn new_raw(key: Key, value: Value, left: *mut NmNode, right: *mut NmNode) -> NmNode {
        NmNode {
            hdr: Header::new(0, core::mem::size_of::<NmNode>()),
            key,
            value,
            left: AtomicPtr::new(left),
            right: AtomicPtr::new(right),
            unlinked: AtomicBool::new(false),
        }
    }

    fn alloc<S: Smr>(
        smr: &S,
        tid: usize,
        key: Key,
        value: Value,
        left: *mut NmNode,
        right: *mut NmNode,
    ) -> *mut NmNode {
        let mut n = Self::new_raw(key, value, left, right);
        n.hdr = Header::new(smr.current_era(), core::mem::size_of::<NmNode>());
        alloc_node(smr, tid, n)
    }

    #[inline(always)]
    fn is_leaf(&self) -> bool {
        unmarked(self.left.load(Ordering::Acquire)).is_null()
    }

    /// The child edge `key` routes through.
    #[inline(always)]
    fn child_for(&self, key: Key) -> &AtomicPtr<NmNode> {
        if key < self.key {
            &self.left
        } else {
            &self.right
        }
    }
}

/// Snapshot of a descent (each node reserved in a seek slot, or immortal).
struct SeekRecord {
    /// Deepest node whose outgoing path edge was clean; owns the edge the
    /// swing CAS targets.
    ancestor: *mut NmNode,
    /// Child of `ancestor` on the path; root of the detachable region.
    successor: *mut NmNode,
    /// Parent of `leaf`.
    parent: *mut NmNode,
    /// The external node covering the sought key.
    leaf: *mut NmNode,
}

/// The lock-free external BST.
pub struct NmTree<S: Smr> {
    /// Immortal root: `r(INF2) → { s(INF1) → { leaf(INF0), leaf(INF1) },
    /// leaf(INF2) }`. The sentinel internals are never deletable (their
    /// leaves' keys can't match a user key), so every real node has a real
    /// ancestor chain.
    root: *mut NmNode,
    s_child: *mut NmNode,
    smr: Arc<S>,
}

// SAFETY: all shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for NmTree<S> {}
// SAFETY: every shared mutation is a CAS on an atomic edge, and every
// dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for NmTree<S> {}

impl<S: Smr> NmTree<S> {
    /// Creates an empty tree. Keys must be `< INF0`.
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "NmTree");
        let nil = core::ptr::null_mut();
        let leaf0 = Box::into_raw(Box::new(NmNode::new_raw(INF0, 0, nil, nil)));
        let leaf1 = Box::into_raw(Box::new(NmNode::new_raw(INF1, 0, nil, nil)));
        let leaf2 = Box::into_raw(Box::new(NmNode::new_raw(INF2, 0, nil, nil)));
        let s_child = Box::into_raw(Box::new(NmNode::new_raw(INF1, 0, leaf0, leaf1)));
        let root = Box::into_raw(Box::new(NmNode::new_raw(INF2, 0, s_child, leaf2)));
        NmTree { root, s_child, smr }
    }

    /// Publishes a hazard for the *clean* pointer read out of `edge`,
    /// validating against the raw (possibly tagged/flagged) edge value.
    /// Returns `(raw, clean)`.
    fn protect_edge(
        &self,
        row: &Row<'_>,
        slot: usize,
        edge: &AtomicPtr<NmNode>,
    ) -> Result<(*mut NmNode, *mut NmNode), Restart> {
        loop {
            let raw = edge.load(Ordering::Acquire);
            let clean = unmarked(raw);
            let relay = AtomicPtr::new(clean);
            self.smr.protect_in(row, slot, &relay)?;
            if edge.load(Ordering::Acquire) == raw {
                return Ok((raw, clean));
            }
        }
    }

    /// Descends to the external node covering `key`. The ancestor /
    /// successor pair freezes at the first tagged edge on the path (tagged
    /// edges belong to pending deletes whose regions end below them).
    ///
    /// Each role names the slot its node was reserved in when it was read
    /// ([`IMMORTAL`] for the sentinels); a role shift copies slot indices,
    /// so the one reservation per level is the edge read into a slot no
    /// role names — the first after the slot read last (module docs).
    fn seek(&self, tid: usize, key: Key) -> Result<SeekRecord, Restart> {
        let row = self.smr.row(tid);
        'retry: loop {
            let mut rec = SeekRecord {
                ancestor: self.root,
                successor: self.s_child,
                parent: self.s_child,
                leaf: core::ptr::null_mut(),
            };
            let (mut ancestor_slot, mut successor_slot, mut parent_slot) =
                (IMMORTAL, IMMORTAL, IMMORTAL);
            let mut leaf_slot = 0;
            // SAFETY: s_child is immortal.
            let (mut parent_field, leaf) =
                self.protect_edge(&row, leaf_slot, unsafe { &(*self.s_child).left })?;
            rec.leaf = leaf;
            loop {
                // SAFETY: rec.leaf is protected in `leaf_slot`; reachable
                // per the unlinked re-check below on its parent at
                // protection time.
                let leaf_ref = unsafe { &*rec.leaf };
                if leaf_ref.is_leaf() {
                    return Ok(rec);
                }
                let slot = next_unnamed_slot(
                    [ancestor_slot, successor_slot, parent_slot, leaf_slot],
                    leaf_slot,
                );
                let (current_raw, current) =
                    self.protect_edge(&row, slot, leaf_ref.child_for(key))?;
                // Reachability re-check (see module docs): pass 1 of a
                // detach flags the edge's owner before pass 2 retires the
                // child, so a clear flag here proves the child's hazard
                // (already published) precedes any retire.
                if leaf_ref.unlinked.load(Ordering::Acquire) {
                    continue 'retry;
                }
                if current.is_null() {
                    // leaf_ref was internal a moment ago; its children are
                    // immutable once set, so null means a torn read.
                    continue 'retry;
                }
                self.smr.check_live(current);
                // Shift roles: ancestor/successor advance only across
                // clean path edges. Each node keeps the slot it was read
                // into; the slots no role names any more are free.
                if !is_tagged(parent_field) {
                    (rec.ancestor, ancestor_slot) = (rec.parent, parent_slot);
                    (rec.successor, successor_slot) = (rec.leaf, leaf_slot);
                }
                (rec.parent, parent_slot) = (rec.leaf, leaf_slot);
                (rec.leaf, leaf_slot) = (current, slot);
                parent_field = current_raw;
            }
        }
    }

    /// Completes the physical detach of the delete whose flag sits on one
    /// of `rec.parent`'s edges. Returns whether *this* call won the swing
    /// (the winner retired the region).
    fn cleanup(&self, tid: usize, key: Key, rec: &SeekRecord) -> Result<bool, Restart> {
        let smr = &*self.smr;
        // SAFETY: all four record nodes are reserved (or immortal).
        let ancestor_ref = unsafe { &*rec.ancestor };
        // SAFETY: as above — the parent is one of the four.
        let parent_ref = unsafe { &*rec.parent };
        let (child_edge, sibling_edge) = if key < parent_ref.key {
            (&parent_ref.left, &parent_ref.right)
        } else {
            (&parent_ref.right, &parent_ref.left)
        };
        let sibling_edge = if is_flagged(child_edge.load(Ordering::Acquire)) {
            sibling_edge
        } else if is_flagged(sibling_edge.load(Ordering::Acquire)) {
            // The flag is on the other side: we are helping a delete whose
            // victim is the sibling of the leaf we sought.
            child_edge
        } else {
            // No delete is pending at `parent`: the caller saw the edge
            // back on its leaf after an insert and a delete below it came
            // and went. Swinging anyway would detach the live sibling
            // subtree, so there is nothing to help.
            return Ok(false);
        };
        smr.begin_write(
            tid,
            &[
                as_header(rec.ancestor),
                as_header(rec.successor),
                as_header(rec.parent),
                as_header(rec.leaf),
            ],
        )?;
        // Freeze the sibling edge so the spliced-in subtree can't change
        // between here and the swing. Sticky: never cleared in place.
        let sib_raw = loop {
            let v = sibling_edge.load(Ordering::Acquire);
            if is_tagged(v) {
                break v;
            }
            if sibling_edge
                .compare_exchange(v, with_tag(v), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break with_tag(v);
            }
        };
        let sibling = unmarked(sib_raw);
        // Swing: ancestor's path edge goes from the (clean) successor to
        // the sibling, dropping TAG but preserving FLAG so a pending
        // delete of the sibling leaf can continue at its new address.
        let new_edge = if is_flagged(sib_raw) {
            with_flag(sibling)
        } else {
            sibling
        };
        let won = ancestor_ref
            .child_for(key)
            .compare_exchange(rec.successor, new_edge, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        if won {
            // The region (subtree of successor minus subtree of sibling)
            // is now unreachable and every edge in it is frozen, so the
            // walk below sees a static graph. Pass 1: flag everything.
            // Pass 2: retire. Nodes beyond the write set can't be freed
            // under us — they are not yet retired and we are the sole
            // retirer.
            let mut region = Vec::new();
            let mut stack = vec![rec.successor];
            while let Some(n) = stack.pop() {
                if n == sibling {
                    continue;
                }
                // SAFETY: frozen, unreachable, not yet retired.
                let n_ref = unsafe { &*n };
                n_ref.unlinked.store(true, Ordering::Release);
                region.push(n);
                for e in [&n_ref.left, &n_ref.right] {
                    let c = unmarked(e.load(Ordering::Acquire));
                    if !c.is_null() {
                        stack.push(c);
                    }
                }
            }
            for n in region {
                // SAFETY: detached exactly once by the swing winner.
                unsafe { retire_node(smr, tid, n) };
            }
        }
        smr.end_write(tid);
        Ok(won)
    }

    fn try_insert(&self, tid: usize, key: Key, value: Value) -> Result<bool, Restart> {
        debug_assert!(key < INF0, "keys must stay below the sentinel range");
        let smr = &*self.smr;
        let rec = self.seek(tid, key)?;
        // SAFETY: leaf/parent protected by seek.
        let leaf_ref = unsafe { &*rec.leaf };
        if leaf_ref.key == key {
            return Ok(false);
        }
        // SAFETY: parent protected by seek (or an immortal sentinel).
        let parent_ref = unsafe { &*rec.parent };
        let edge = parent_ref.child_for(key);
        let nil = core::ptr::null_mut();
        let new_leaf = NmNode::alloc(smr, tid, key, value, nil, nil);
        // Routing node: larger key routes right (external-tree shape).
        let internal = if key < leaf_ref.key {
            NmNode::alloc(smr, tid, leaf_ref.key, 0, new_leaf, rec.leaf)
        } else {
            NmNode::alloc(smr, tid, key, 0, rec.leaf, new_leaf)
        };
        let free_pair = |s: &S| {
            // SAFETY: never published.
            unsafe {
                dealloc_node_unpublished(s, tid, internal);
                dealloc_node_unpublished(s, tid, new_leaf);
            }
        };
        if let Err(r) = smr.begin_write(tid, &[as_header(rec.parent), as_header(rec.leaf)]) {
            free_pair(smr);
            return Err(r);
        }
        let ok = edge
            .compare_exchange(rec.leaf, internal, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        smr.end_write(tid);
        if ok {
            return Ok(true);
        }
        free_pair(smr);
        // If the CAS lost to a delete of this very leaf (edge now carries
        // bits on the same pointer), help detach before retrying.
        if unmarked(edge.load(Ordering::Acquire)) == rec.leaf {
            let _ = self.cleanup(tid, key, &rec);
        }
        Err(Restart)
    }

    fn try_remove(&self, tid: usize, key: Key) -> Result<bool, Restart> {
        let smr = &*self.smr;
        let rec = self.seek(tid, key)?;
        // SAFETY: leaf/parent protected by seek.
        if unsafe { &*rec.leaf }.key != key {
            return Ok(false);
        }
        let target = rec.leaf;
        // Pin the victim across the cleanup loop: later seeks reassign the
        // seek slots, and the pointer-equality check below is only
        // meaningful while `target` cannot be freed and reallocated. It is
        // already reserved in a seek slot, so there is no gap to validate.
        let relay = AtomicPtr::new(target);
        smr.protect_in(&smr.row(tid), SLOT_VICTIM, &relay)?;
        // SAFETY: parent protected by seek (or an immortal sentinel); the
        // victim pin above re-protects a different slot.
        let edge = unsafe { &*rec.parent }.child_for(key);
        // Injection: flag the parent→leaf edge. This is the logical
        // delete (linearization point) — the flag is sticky, so the leaf
        // can never be revived.
        smr.begin_write(tid, &[as_header(rec.parent), as_header(rec.leaf)])?;
        let injected = edge
            .compare_exchange(
                target,
                with_flag(target),
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        smr.end_write(tid);
        if !injected {
            // Lost to a concurrent delete or insert at this leaf; help if
            // it was a delete of the same leaf, then retry from scratch.
            if unmarked(edge.load(Ordering::Acquire)) == target {
                let _ = self.cleanup(tid, key, &rec);
            }
            return Err(Restart);
        }
        // Physical cleanup. Never propagate Restart past this point: the
        // delete already linearized, so the caller's retry would re-seek
        // and wrongly report the key absent.
        let mut rec = rec;
        loop {
            if let Ok(true) = self.cleanup(tid, key, &rec) {
                return Ok(true);
            }
            rec = match self.seek(tid, key) {
                Ok(r) => r,
                Err(Restart) => continue,
            };
            if rec.leaf != target {
                // A helper completed our detach (target is pinned, so
                // this cannot be address reuse).
                return Ok(true);
            }
        }
    }

    fn try_get(&self, tid: usize, key: Key) -> Result<Option<Value>, Restart> {
        let rec = self.seek(tid, key)?;
        // SAFETY: leaf protected by seek.
        let leaf_ref = unsafe { &*rec.leaf };
        if leaf_ref.key == key {
            Ok(Some(leaf_ref.value))
        } else {
            Ok(None)
        }
    }

    /// In-order key census for test validation (requires quiescence).
    pub fn keys_quiescent(&self) -> Vec<Key> {
        fn walk(p: *mut NmNode, out: &mut Vec<Key>) {
            let p = unmarked(p);
            if p.is_null() {
                return;
            }
            // SAFETY: caller guarantees no concurrent mutation.
            let n = unsafe { &*p };
            if n.is_leaf() {
                if n.key < INF0 {
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
            unsafe { &*self.root }.left.load(Ordering::Acquire),
            &mut out,
        );
        out
    }
}

impl<S: Smr> ConcurrentMap<S> for NmTree<S> {
    const DS_NAME: &'static str = "NMT";

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

impl<S: Smr> Drop for NmTree<S> {
    fn drop(&mut self) {
        fn free(p: *mut NmNode) {
            let p = unmarked(p);
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
        free(self.root);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use core::sync::atomic::{AtomicU32, AtomicUsize};
    use pop_core::{DomainStats, Ebr, HazardPtr, HazardPtrPop, ReadResult, Retired, SmrConfig};

    /// Forwards to `S`, keeping a shadow row — the last pointer protected
    /// into each slot, i.e. what the slot's live word reserves — a mask of
    /// the slots written, and a count of protects.
    struct Shadow<S: Smr> {
        inner: Arc<S>,
        row: [AtomicUsize; SLOTS_REQUIRED],
        written: AtomicU32,
        protects: AtomicUsize,
    }

    impl<S: Smr> Shadow<S> {
        /// Whether one of the seek slots reserves `p`.
        fn seek_slots_hold(&self, p: *mut NmNode) -> bool {
            self.row[..SEEK_SLOTS]
                .iter()
                .any(|w| w.load(Ordering::Relaxed) == p as usize)
        }

        fn protects(&self) -> usize {
            self.protects.load(Ordering::Relaxed)
        }

        /// How many seek slots were written since the last call.
        fn seek_slots_written(&self) -> u32 {
            let mask = (1 << SEEK_SLOTS) - 1;
            (self.written.swap(0, Ordering::Relaxed) & mask).count_ones()
        }
    }

    impl<S: Smr> Smr for Shadow<S> {
        const NAME: &'static str = S::NAME;
        const ROBUST: bool = S::ROBUST;
        const NEEDS_SIGNALS: bool = S::NEEDS_SIGNALS;

        fn new(cfg: SmrConfig) -> Arc<Self> {
            Arc::new(Shadow {
                inner: S::new(cfg),
                row: Default::default(),
                written: AtomicU32::new(0),
                protects: AtomicUsize::new(0),
            })
        }

        fn config(&self) -> &SmrConfig {
            self.inner.config()
        }

        fn stats(&self) -> &DomainStats {
            self.inner.stats()
        }

        fn register_raw(&self, tid: usize) {
            self.inner.register_raw(tid)
        }

        fn unregister(&self, tid: usize) {
            self.inner.unregister(tid)
        }

        fn begin_op(&self, tid: usize) {
            self.inner.begin_op(tid)
        }

        fn end_op(&self, tid: usize) {
            self.inner.end_op(tid)
        }

        fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
            self.protects.fetch_add(1, Ordering::Relaxed);
            let p = self.inner.protect(tid, slot, src)?;
            self.row[slot].store(unmarked(p) as usize, Ordering::Relaxed);
            self.written.fetch_or(1 << slot, Ordering::Relaxed);
            Ok(p)
        }

        fn check_live<T>(&self, ptr: *mut T) {
            self.inner.check_live(ptr)
        }

        fn begin_write(&self, tid: usize, ptrs: &[*mut Header]) -> Result<(), Restart> {
            self.inner.begin_write(tid, ptrs)
        }

        fn end_write(&self, tid: usize) {
            self.inner.end_write(tid)
        }

        unsafe fn retire(&self, tid: usize, retired: Retired) {
            // SAFETY: the caller's contract is forwarded unchanged.
            unsafe { self.inner.retire(tid, retired) }
        }

        fn current_era(&self) -> u64 {
            self.inner.current_era()
        }

        fn flush(&self, tid: usize) {
            self.inner.flush(tid)
        }
    }

    /// Edges from `s_child` down to the leaf covering `key`: the number of
    /// nodes a seek for `key` reads (requires quiescence).
    fn depth<S: Smr>(t: &NmTree<S>, key: Key) -> usize {
        let mut d = 0;
        let mut n = t.s_child;
        loop {
            // SAFETY: quiescent; every reachable node is live.
            let r = unsafe { &*n };
            if r.is_leaf() {
                return d;
            }
            n = unmarked(r.child_for(key).load(Ordering::Acquire));
            d += 1;
        }
    }

    /// A tree of `0..KEYS` keys inserted in a scrambled order, every third
    /// one removed again.
    const KEYS: u64 = 300;

    fn churned<S: Smr>(t: &NmTree<S>) {
        for k in 0..KEYS {
            t.insert(0, k * 7 % KEYS, k);
        }
        for k in (0..KEYS).step_by(3) {
            assert!(t.remove(0, k * 11 % KEYS));
        }
    }

    /// Every role a seek hands back, sentinels aside, is reserved by a
    /// seek slot's live word.
    fn assert_roles_reserved(t: &NmTree<Shadow<HazardPtr>>, shadow: &Shadow<HazardPtr>) {
        for key in 0..KEYS + 2 {
            shadow.begin_op(0);
            let rec = t.seek(0, key).expect("HP never restarts");
            for (role, p) in [
                ("ancestor", rec.ancestor),
                ("successor", rec.successor),
                ("parent", rec.parent),
                ("leaf", rec.leaf),
            ] {
                assert!(
                    p == t.root || p == t.s_child || shadow.seek_slots_hold(p),
                    "seek({key}): the {role} is in no seek slot"
                );
            }
            shadow.end_op(0);
        }
    }

    #[test]
    fn seek_reserves_each_node_once_and_every_role_stays_reserved() {
        let smr = Shadow::<HazardPtr>::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let t = NmTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        churned(&t);
        let mut deep = 0;
        for key in 0..KEYS + 2 {
            let d = depth(&t, key);
            let before = smr.protects();
            smr.seek_slots_written();
            let _ = t.get(0, key);
            assert_eq!(smr.protects() - before, d, "get({key}) at depth {d}");
            // A descent cycles through the seek slots, so none keeps a word
            // from an earlier operation.
            if d >= SEEK_SLOTS {
                assert_eq!(smr.seek_slots_written(), SEEK_SLOTS as u32, "get({key})");
                deep += 1;
            }
        }
        assert!(deep > 0, "some descent is at least {SEEK_SLOTS} deep");
        assert_roles_reserved(&t, &smr);
        // A stalled delete: flag an internal node's left leaf and tag its
        // right edge without the swing, so seeks below it keep their
        // ancestor and successor while parent and leaf move on.
        let mut stack = vec![t.s_child];
        let stalled = loop {
            // SAFETY: quiescent; every reachable node is live, and an
            // internal node has both children.
            let n = unsafe { &*stack.pop().expect("the churned tree has one") };
            if n.is_leaf() {
                continue;
            }
            let (l, r) = (
                n.left.load(Ordering::Relaxed),
                n.right.load(Ordering::Relaxed),
            );
            // SAFETY: as above.
            if unsafe { &*l }.is_leaf() && !unsafe { &*r }.is_leaf() {
                break n;
            }
            stack.extend([l, r]);
        };
        let victim = stalled.left.load(Ordering::Relaxed);
        stalled.left.store(with_flag(victim), Ordering::Relaxed);
        let sibling = stalled.right.load(Ordering::Relaxed);
        stalled.right.store(with_tag(sibling), Ordering::Relaxed);
        assert_roles_reserved(&t, &smr);
        // A remove of the flagged key helps the stalled delete finish; the
        // flag already linearized it, so the key is gone.
        // SAFETY: the victim is a live leaf.
        let key = unsafe { &*victim }.key;
        assert!(!t.remove(0, key));
        assert!(!t.keys_quiescent().contains(&key));
        drop(reg);
    }

    #[test]
    fn roundtrip_with_classic_hp() {
        let smr = HazardPtr::new(SmrConfig::for_tests(2).with_reclaim_freq(8));
        let t = NmTree::new(Arc::clone(&smr));
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
    fn cleanup_of_a_clean_edge_detaches_nothing() {
        // An insert's CAS can lose to an insert below its leaf whose key is
        // then deleted again, leaving the edge back on the leaf, clean.
        // The loser's help check sees its leaf and calls `cleanup`; with no
        // delete pending at the parent that must not swing the ancestor
        // edge, which would detach the parent's live other subtree.
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let t = NmTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for k in [10u64, 20, 30] {
            assert!(t.insert(0, k, k));
        }
        smr.begin_op(0);
        let rec = t.seek(0, 25).expect("HP never restarts");
        smr.end_op(0);
        // SAFETY: nothing is removed while the record is in use.
        assert_eq!(unsafe { &*rec.leaf }.key, 20);
        assert!(t.insert(0, 25, 25));
        assert!(t.remove(0, 25));
        smr.begin_op(0);
        assert_eq!(t.cleanup(0, 25, &rec), Ok(false), "nothing to help");
        smr.end_op(0);
        assert_eq!(t.keys_quiescent(), vec![10, 20, 30]);
        drop(reg);
    }

    #[test]
    fn delete_detaches_and_retires() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(2).with_reclaim_freq(4));
        let t = NmTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for k in 1..=20u64 {
            assert!(t.insert(0, k, k));
        }
        for k in 1..=20u64 {
            assert!(t.remove(0, k), "remove {k}");
            assert!(!t.remove(0, k), "double remove rejected");
            assert!(!t.contains(0, k));
        }
        assert!(t.keys_quiescent().is_empty());
        // Uncontended deletes detach one routing node + one leaf each.
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().retired_nodes, 40);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn empty_tree_queries() {
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let t = NmTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        assert!(!t.contains(0, 5));
        assert!(!t.remove(0, 5));
        assert!(t.insert(0, 5, 50));
        assert!(t.remove(0, 5));
        assert!(!t.contains(0, 5));
        drop(reg);
    }

    #[test]
    fn keys_near_the_sentinel_boundary() {
        // The largest legal user key routes through every sentinel
        // comparison; regression for routing-key collisions at the top.
        let smr = HazardPtr::new(SmrConfig::for_tests(1));
        let t = NmTree::new(Arc::clone(&smr));
        let reg = smr.register(0);
        let big = INF0 - 1;
        assert!(t.insert(0, big, 1));
        assert!(t.insert(0, 0, 2));
        assert!(t.contains(0, big));
        assert!(t.remove(0, big));
        assert!(!t.contains(0, big));
        assert!(t.remove(0, 0));
        assert!(t.keys_quiescent().is_empty());
        drop(reg);
    }

    #[test]
    fn interleaved_insert_delete_keeps_order() {
        let smr = Ebr::new(SmrConfig::for_tests(1).with_reclaim_freq(16));
        let t = NmTree::new(Arc::clone(&smr));
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
