//! `SKL` — lock-free skip list (Fraser / Herlihy-Shavit style), the
//! long-traversal headliner of the smr-benchmark roster.
//!
//! Every node owns a tower of `next` pointers; the level-0 list is the
//! ground truth (a Harris-Michael list), upper levels are index shortcuts.
//! Deletion marks the tower's `next` pointers top-down (bit 0, as in
//! [`crate::hml`]); traversals help unlink marked nodes at every level and
//! the thread whose **level-0** unlink CAS succeeds retires the node —
//! exactly once, per the module discipline in [`crate`].
//!
//! ## Hazard-pointer discipline
//!
//! Traversals use the alternating two-slot scheme of [`crate::hml`], per
//! level: `protect(slot, &pred.next[lvl])` validates by re-read, a *marked*
//! value read out of the predecessor's link means the predecessor was
//! deleted and the descent restarts from the head. Insertion additionally
//! pins the new node in a third slot ([`SLOTS_REQUIRED`]) **before** the
//! level-0 publish CAS: upper-level linking dereferences the node after it
//! is public, and the pre-publication reservation guarantees no reclaimer
//! can have missed it even if a racing remover retires the node mid-build.
//!
//! The build/remove race that pin covers: a remover marks the tower
//! top-down and retires at the level-0 unlink, while the inserter may
//! still be linking an upper level. After every successful upper-level
//! link the inserter re-checks the mark *inside the same write bracket*;
//! if deletion began, it re-runs the helping descent to unlink its own
//! link before releasing the pin — so a retired node is never reachable
//! once the pin drops.

use core::sync::atomic::{AtomicPtr, AtomicU64, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, dealloc_node_unpublished, free_node_raw, retire_node, HasHeader, Header,
    Restart, Smr,
};

use crate::marked::{is_marked, marked, unmarked};
use crate::{ConcurrentMap, Key, Value};

/// Tower height cap. Geometric heights (p = ½) make the expected number
/// of nodes at the top level `n / 2^15` — ample index for the benchmark
/// key ranges while keeping the per-node tower footprint fixed.
pub const MAX_HEIGHT: usize = 16;

/// Hazard slots the skip list uses: two alternating traversal slots plus
/// the insert-time pin (callers must configure at least this many).
pub const SLOTS_REQUIRED: usize = 3;

/// Slot pinning a freshly inserted node across upper-level linking.
const PIN_SLOT: usize = 2;

/// Skip-list node. `#[repr(C)]`, header first — see [`HasHeader`].
#[repr(C)]
pub struct SkipNode {
    hdr: Header,
    /// Immutable after insertion.
    pub key: Key,
    /// Element value; atomic for race-freedom with `get`.
    pub value: AtomicU64,
    /// Tower height in `1..=MAX_HEIGHT` (immutable).
    pub height: usize,
    /// Tower; `next[lvl]` bit 0 is the deletion mark for that level.
    pub next: [AtomicPtr<SkipNode>; MAX_HEIGHT],
}

// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for SkipNode {}

impl SkipNode {
    fn new_raw(key: Key, value: Value, height: usize) -> SkipNode {
        SkipNode {
            hdr: Header::new(0, core::mem::size_of::<SkipNode>()),
            key,
            value: AtomicU64::new(value),
            height,
            next: core::array::from_fn(|_| AtomicPtr::new(core::ptr::null_mut())),
        }
    }

    fn alloc<S: Smr>(smr: &S, tid: usize, key: Key, value: Value, height: usize) -> *mut SkipNode {
        let mut n = Self::new_raw(key, value, height);
        n.hdr = Header::new(smr.current_era(), core::mem::size_of::<SkipNode>());
        alloc_node(smr, tid, n)
    }
}

/// Deterministic geometric tower height from the key (p = ½): reinsertion
/// of a key always rebuilds the same height, which keeps the index
/// balanced under churn and keeps benchmark runs reproducible.
pub fn height_for(key: Key) -> usize {
    let mut z = key.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    ((z.trailing_ones() as usize) + 1).min(MAX_HEIGHT)
}

/// Traversal position at one level (mirrors [`crate::hml`]'s `Position`).
struct Position {
    pred_link: *const AtomicPtr<SkipNode>,
    /// Node owning `pred_link`; null when it is a head link (immortal).
    pred_node: *mut SkipNode,
    curr: *mut SkipNode,
    found: bool,
}

/// The lock-free skip list set.
pub struct SkipList<S: Smr> {
    /// Immortal full-height head tower (never retired).
    head: *mut SkipNode,
    smr: Arc<S>,
}

// SAFETY: all shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for SkipList<S> {}
// SAFETY: every shared mutation is a CAS on an atomic link, and every
// dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for SkipList<S> {}

impl<S: Smr> SkipList<S> {
    /// Creates an empty skip list.
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "SkipList");
        let head = Box::into_raw(Box::new(SkipNode::new_raw(0, 0, MAX_HEIGHT)));
        SkipList { head, smr }
    }

    /// Descends from the top level down to `target_level`, helping unlink
    /// marked nodes at every visited level (retiring only on a level-0
    /// unlink). On success the returned `curr` is the first node at
    /// `target_level` with `key >= target`, protected in one traversal
    /// slot, with `pred_node` (if non-null) protected in the other.
    ///
    /// Postcondition used by the insert/remove cleanups: a node whose
    /// `next[target_level]` is marked cannot be returned *or remain
    /// linked* at `target_level` on the traversed path — the descent
    /// either unlinked it or restarted.
    fn find_level(&self, tid: usize, key: Key, target_level: usize) -> Result<Position, Restart> {
        let smr = &*self.smr;
        let row = smr.row(tid);
        'retry: loop {
            // SAFETY: head is immortal.
            let head_ref = unsafe { &*self.head };
            let mut pred_node: *mut SkipNode = core::ptr::null_mut();
            let mut pred_tower: &[AtomicPtr<SkipNode>; MAX_HEIGHT] = &head_ref.next;
            let mut sp = 0usize;
            let mut sc = 1usize;
            let mut lvl = MAX_HEIGHT - 1;
            let mut curr_raw = smr.protect_in(&row, sc, &pred_tower[lvl])?;
            loop {
                if is_marked(curr_raw) {
                    // The predecessor was logically deleted under us; its
                    // links can no longer be trusted to reach live nodes.
                    continue 'retry;
                }
                let curr = curr_raw;
                if curr.is_null() {
                    // End of this level's list.
                    if lvl == target_level {
                        return Ok(Position {
                            pred_link: &pred_tower[lvl],
                            pred_node,
                            curr,
                            found: false,
                        });
                    }
                    lvl -= 1;
                    curr_raw = smr.protect_in(&row, sc, &pred_tower[lvl])?;
                    continue;
                }
                // Unmarked link from a live predecessor ⇒ curr was
                // reachable after the reservation — safe to dereference.
                smr.check_live(curr);
                // SAFETY: curr is protected in `sc` (validated reachable).
                let curr_ref = unsafe { &*curr };
                let next_raw = curr_ref.next[lvl].load(Ordering::Acquire);
                if is_marked(next_raw) {
                    // curr is logically deleted at this level: help unlink.
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
                    let unlinked = pred_tower[lvl]
                        .compare_exchange(curr, succ, Ordering::AcqRel, Ordering::Acquire)
                        .is_ok();
                    if unlinked && lvl == 0 {
                        // The level-0 unlink is the single retire point.
                        // SAFETY: we won it — retire exactly once.
                        unsafe { retire_node(smr, tid, curr) };
                    }
                    smr.end_write(tid);
                    if !unlinked {
                        continue 'retry;
                    }
                    curr_raw = smr.protect_in(&row, sc, &pred_tower[lvl])?;
                    continue;
                }
                let ckey = curr_ref.key;
                if ckey < key {
                    // Advance within the level: curr becomes the
                    // predecessor (keeping its hazard slot).
                    pred_node = curr;
                    pred_tower = &curr_ref.next;
                    core::mem::swap(&mut sp, &mut sc);
                    curr_raw = smr.protect_in(&row, sc, &pred_tower[lvl])?;
                    continue;
                }
                if lvl == target_level {
                    return Ok(Position {
                        pred_link: &pred_tower[lvl],
                        pred_node,
                        curr,
                        found: ckey == key,
                    });
                }
                // Descend (pred unchanged, keeps its slot).
                lvl -= 1;
                curr_raw = smr.protect_in(&row, sc, &pred_tower[lvl])?;
            }
        }
    }

    fn try_insert(&self, tid: usize, key: Key, value: Value) -> Result<bool, Restart> {
        let smr = &*self.smr;
        let pos = self.find_level(tid, key, 0)?;
        if pos.found {
            return Ok(false);
        }
        let height = height_for(key);
        let node = SkipNode::alloc(smr, tid, key, value, height);
        // SAFETY: node is ours until published.
        unsafe { &*node }.next[0].store(pos.curr, Ordering::Relaxed);
        // Pin the node *before* it becomes reachable (see module docs).
        let pin = AtomicPtr::new(node);
        if smr.protect(tid, PIN_SLOT, &pin).is_err() {
            // SAFETY: never published.
            unsafe { dealloc_node_unpublished(smr, tid, node) };
            return Err(Restart);
        }
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
            // SAFETY: never published.
            unsafe { dealloc_node_unpublished(smr, tid, node) };
            return Err(r);
        }
        // SAFETY: pred_link is the head tower or the protected pred's.
        let ok = unsafe { &*pos.pred_link }
            .compare_exchange(pos.curr, node, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        smr.end_write(tid);
        if !ok {
            // SAFETY: CAS failed; never published.
            unsafe { dealloc_node_unpublished(smr, tid, node) };
            return Err(Restart);
        }
        // The set insert linearized at the level-0 CAS; upper levels are
        // index-only and best-effort (an abandoned build just leaves a
        // shorter tower).
        self.build_tower(tid, node, height, key);
        Ok(true)
    }

    /// Links `node` into levels `1..height`. Runs under the insert pin;
    /// never restarts the caller (the insert already happened).
    fn build_tower(&self, tid: usize, node: *mut SkipNode, height: usize, key: Key) {
        let smr = &*self.smr;
        // SAFETY: node is pinned in PIN_SLOT for the whole build.
        let node_ref = unsafe { &*node };
        'build: for lvl in 1..height {
            loop {
                let pos = match self.find_level(tid, key, lvl) {
                    Ok(p) => p,
                    Err(Restart) => break 'build,
                };
                if pos.curr == node {
                    // Already linked here (a retried level).
                    continue 'build;
                }
                let succ = pos.curr;
                let mut wset = [core::ptr::null_mut::<Header>(); 3];
                let mut n = 0;
                if !pos.pred_node.is_null() {
                    wset[n] = as_header(pos.pred_node);
                    n += 1;
                }
                wset[n] = as_header(node);
                n += 1;
                if !succ.is_null() {
                    wset[n] = as_header(succ);
                    n += 1;
                }
                if smr.begin_write(tid, &wset[..n]).is_err() {
                    break 'build;
                }
                // Point the tower at the successor first; a mark observed
                // here means deletion began — stop (nothing linked at lvl).
                let cur_next = node_ref.next[lvl].load(Ordering::Acquire);
                if is_marked(cur_next)
                    || (cur_next != succ
                        && node_ref.next[lvl]
                            .compare_exchange(cur_next, succ, Ordering::AcqRel, Ordering::Acquire)
                            .is_err())
                {
                    smr.end_write(tid);
                    break 'build;
                }
                // SAFETY: pred_link is the head tower or the protected
                // pred's; both outlive the bracket.
                let linked = unsafe { &*pos.pred_link }
                    .compare_exchange(succ, node, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok();
                // Re-check *inside the bracket*: if deletion began after
                // the validation above, our link may have resurrected a
                // node that was already unlinked at level 0 and retired.
                let resurrected = linked && is_marked(node_ref.next[lvl].load(Ordering::Acquire));
                smr.end_write(tid);
                if linked {
                    if resurrected {
                        // Undo before the pin drops: a completed helping
                        // descent at `lvl` guarantees the marked node is no
                        // longer linked there.
                        while self.find_level(tid, key, lvl).is_err() {}
                        break 'build;
                    }
                    continue 'build;
                }
                // Lost the link race: refresh the position and retry.
            }
        }
    }

    fn try_remove(&self, tid: usize, key: Key) -> Result<bool, Restart> {
        let smr = &*self.smr;
        let pos = self.find_level(tid, key, 0)?;
        if !pos.found {
            return Ok(false);
        }
        let node = pos.curr;
        // SAFETY: protected by find_level.
        let node_ref = unsafe { &*node };
        smr.begin_write(tid, &[as_header(node)])?;
        // Mark the tower top-down; upper-level marks also freeze a racing
        // inserter's build (its validation CAS expects an unmarked value).
        for lvl in (1..node_ref.height).rev() {
            loop {
                let nx = node_ref.next[lvl].load(Ordering::Acquire);
                if is_marked(nx) {
                    break;
                }
                if node_ref.next[lvl]
                    .compare_exchange(nx, marked(nx), Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    break;
                }
            }
        }
        // Level 0 decides the race: the thread whose mark CAS wins owns
        // the logical deletion.
        let won = loop {
            let nx = node_ref.next[0].load(Ordering::Acquire);
            if is_marked(nx) {
                break false; // another remover linearized first
            }
            if node_ref.next[0]
                .compare_exchange(nx, marked(nx), Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                break true;
            }
        };
        smr.end_write(tid);
        if !won {
            return Ok(false);
        }
        // Physical cleanup (helping descent unlinks every level and
        // retires at level 0). Best effort here: any traversal finishes
        // the job, and the bounded-garbage schemes only need the retire,
        // which the descent that wins the level-0 unlink performs.
        while self.find_level(tid, key, 0).is_err() {}
        Ok(true)
    }

    fn try_get(&self, tid: usize, key: Key) -> Result<Option<Value>, Restart> {
        let pos = self.find_level(tid, key, 0)?;
        if pos.found {
            // SAFETY: protected by find_level.
            Ok(Some(unsafe { &*pos.curr }.value.load(Ordering::Acquire)))
        } else {
            Ok(None)
        }
    }

    /// Sequential level-0 iteration for test validation (requires
    /// quiescence).
    pub fn iter_quiescent(&self) -> Vec<(Key, Value)> {
        let mut out = Vec::new();
        // SAFETY: caller guarantees no concurrent mutation.
        let mut p = unmarked(unsafe { &*self.head }.next[0].load(Ordering::Acquire));
        while !p.is_null() {
            // SAFETY: quiescence contract.
            let n = unsafe { &*p };
            let next = n.next[0].load(Ordering::Acquire);
            if !is_marked(next) {
                out.push((n.key, n.value.load(Ordering::Acquire)));
            }
            p = unmarked(next);
        }
        out
    }
}

impl<S: Smr> ConcurrentMap<S> for SkipList<S> {
    const DS_NAME: &'static str = "SKL";

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

impl<S: Smr> Drop for SkipList<S> {
    fn drop(&mut self) {
        // Quiescent teardown: the level-0 list owns every node.
        // SAFETY: exclusive access in Drop; the head sentinel is immortal
        // until freed at the end of this function.
        let mut p = unmarked(unsafe { &*self.head }.next[0].load(Ordering::Relaxed));
        while !p.is_null() {
            // SAFETY: exclusive access in Drop.
            let next = unmarked(unsafe { &*p }.next[0].load(Ordering::Relaxed));
            // SAFETY: exclusive access; dispatches on the slab bit.
            unsafe { free_node_raw(p) };
            p = next;
        }
        // SAFETY: head was never shared beyond this struct.
        unsafe { free_node_raw(self.head) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pop_core::{Ebr, HazardPtrPop, SmrConfig};

    fn skl() -> (Arc<HazardPtrPop>, SkipList<HazardPtrPop>) {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(4).with_reclaim_freq(8));
        let l = SkipList::new(Arc::clone(&smr));
        (smr, l)
    }

    #[test]
    fn insert_contains_remove_roundtrip() {
        let (smr, l) = skl();
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
    fn keeps_sorted_order_across_towers() {
        let (smr, l) = skl();
        let reg = smr.register(0);
        for k in [7u64, 1, 9, 3, 5, 8, 2, 6, 4, 0] {
            assert!(l.insert(0, k, k * 10));
        }
        let keys: Vec<u64> = l.iter_quiescent().iter().map(|&(k, _)| k).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        drop(reg);
    }

    #[test]
    fn removal_retires_into_domain() {
        let (smr, l) = skl();
        let reg = smr.register(0);
        for k in 0..200u64 {
            l.insert(0, k, k);
        }
        for k in 0..200u64 {
            assert!(l.remove(0, k), "remove {k}");
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        assert_eq!(s.retired_nodes, 200);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        assert!(l.iter_quiescent().is_empty());
        drop(reg);
    }

    #[test]
    fn heights_are_deterministic_and_bounded() {
        let mut tall = 0;
        for k in 0..10_000u64 {
            let h = height_for(k);
            assert!((1..=MAX_HEIGHT).contains(&h));
            assert_eq!(h, height_for(k), "height is a pure function of key");
            if h > 1 {
                tall += 1;
            }
        }
        // Geometric p=½: about half the towers exceed height 1.
        assert!((3_000..7_000).contains(&tall), "tall towers: {tall}");
    }

    #[test]
    fn churn_under_ebr() {
        let smr = Ebr::new(SmrConfig::for_tests(2).with_reclaim_freq(32));
        let l = SkipList::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for round in 0..20u64 {
            for k in 0..64u64 {
                l.insert(0, k, round);
            }
            for k in (0..64u64).step_by(2) {
                assert!(l.remove(0, k));
            }
            for k in (1..64u64).step_by(2) {
                assert!(l.contains(0, k));
            }
            for k in (1..64u64).step_by(2) {
                assert!(l.remove(0, k));
            }
        }
        assert!(l.iter_quiescent().is_empty());
        drop(reg);
    }

    #[test]
    fn empty_list_operations() {
        let (smr, l) = skl();
        let reg = smr.register(0);
        assert!(!l.contains(0, 1));
        assert!(!l.remove(0, 1));
        assert_eq!(l.get(0, 1), None);
        drop(reg);
    }
}
