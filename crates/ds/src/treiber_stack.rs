//! Treiber stack under generic SMR — a non-set structure demonstrating the
//! paper's applicability claim (§4.2.4: POP schemes apply to every data
//! structure hazard pointers apply to).
//!
//! The classic ABA hazard of `pop` (head reused between read and CAS) is
//! exactly what safe memory reclamation eliminates: a protected node
//! cannot be freed, hence cannot be recycled at the same address while the
//! CAS is in flight.

use core::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, free_node_raw, retire_node, HasHeader, Header, Restart, Smr,
};

use crate::Value;

/// Stack node. `#[repr(C)]`, header first.
#[repr(C)]
pub struct StackNode {
    hdr: Header,
    value: Value,
    next: AtomicPtr<StackNode>,
}

// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for StackNode {}

/// Hazard slots a push or pop uses (the domain must have at least this
/// many).
pub const SLOTS_REQUIRED: usize = 1;

/// A lock-free LIFO stack.
pub struct TreiberStack<S: Smr> {
    head: AtomicPtr<StackNode>,
    smr: Arc<S>,
}

// SAFETY: shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for TreiberStack<S> {}
// SAFETY: every shared mutation is a CAS on `head`, and every dereference
// of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for TreiberStack<S> {}

impl<S: Smr> TreiberStack<S> {
    /// Creates an empty stack.
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "TreiberStack");
        TreiberStack {
            head: AtomicPtr::new(core::ptr::null_mut()),
            smr,
        }
    }

    /// The reclamation domain.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    fn try_push(&self, tid: usize, node: *mut StackNode) -> Result<(), Restart> {
        let row = self.smr.row(tid);
        let head = self.smr.protect_in(&row, 0, &self.head)?;
        // SAFETY: node is private until the CAS publishes it.
        unsafe { (*node).next.store(head, Ordering::Relaxed) };
        let mut wset = [core::ptr::null_mut::<Header>(); 1];
        let mut n = 0;
        if !head.is_null() {
            wset[n] = as_header(head);
            n += 1;
        }
        self.smr.begin_write(tid, &wset[..n])?;
        let ok = self
            .head
            .compare_exchange(head, node, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        self.smr.end_write(tid);
        if ok {
            Ok(())
        } else {
            Err(Restart)
        }
    }

    /// Pushes a value.
    pub fn push(&self, tid: usize, value: Value) {
        let node = alloc_node(
            &*self.smr,
            tid,
            StackNode {
                hdr: Header::new(self.smr.current_era(), core::mem::size_of::<StackNode>()),
                value,
                next: AtomicPtr::new(core::ptr::null_mut()),
            },
        );
        loop {
            self.smr.begin_op(tid);
            let r = self.try_push(tid, node);
            self.smr.end_op(tid);
            if r.is_ok() {
                return;
            }
        }
    }

    fn try_pop(&self, tid: usize) -> Result<Option<Value>, Restart> {
        let row = self.smr.row(tid);
        let head = self.smr.protect_in(&row, 0, &self.head)?;
        if head.is_null() {
            return Ok(None);
        }
        // `self.head` is a root: a validated read is always reachable.
        self.smr.check_live(head);
        // SAFETY: head is protected (validated reachable).
        let next = unsafe { &*head }.next.load(Ordering::Acquire);
        let mut wset = [core::ptr::null_mut::<Header>(); 2];
        let mut n = 0;
        wset[n] = as_header(head);
        n += 1;
        if !next.is_null() {
            wset[n] = as_header(next);
            n += 1;
        }
        self.smr.begin_write(tid, &wset[..n])?;
        let ok = self
            .head
            .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        let value = if ok {
            // SAFETY: protected; read before retiring.
            let v = unsafe { &*head }.value;
            // SAFETY: we won the unlink CAS — retire exactly once.
            unsafe { retire_node(&*self.smr, tid, head) };
            Some(v)
        } else {
            None
        };
        self.smr.end_write(tid);
        if ok {
            Ok(value)
        } else {
            Err(Restart)
        }
    }

    /// Pops the top value, or `None` when empty.
    pub fn pop(&self, tid: usize) -> Option<Value> {
        loop {
            self.smr.begin_op(tid);
            let r = self.try_pop(tid);
            self.smr.end_op(tid);
            match r {
                Ok(v) => return v,
                Err(Restart) => continue,
            }
        }
    }

    /// Whether the stack is empty at this instant.
    pub fn is_empty(&self) -> bool {
        self.head.load(Ordering::Acquire).is_null()
    }
}

impl<S: Smr> Drop for TreiberStack<S> {
    fn drop(&mut self) {
        let mut p = self.head.load(Ordering::Relaxed);
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
    use pop_core::{HazardPtrPop, SmrConfig};
    use std::collections::HashSet;

    #[test]
    fn lifo_order_single_thread() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let s = TreiberStack::new(Arc::clone(&smr));
        let reg = smr.register(0);
        for v in 0..10u64 {
            s.push(0, v);
        }
        for v in (0..10u64).rev() {
            assert_eq!(s.pop(0), Some(v));
        }
        assert_eq!(s.pop(0), None);
        assert!(s.is_empty());
        smr.flush(0);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn concurrent_push_pop_conserves_values() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(4).with_reclaim_freq(64));
        let s = Arc::new(TreiberStack::new(Arc::clone(&smr)));
        let mut handles = Vec::new();
        for tid in 0..2 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let _reg = s.smr().register(tid);
                for i in 0..5_000u64 {
                    s.push(tid, (tid as u64) << 32 | i);
                }
                Vec::new() // uniform JoinHandle type with the poppers
            }));
        }
        for tid in 2..4 {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let _reg = s.smr().register(tid);
                let mut got = Vec::new();
                let mut misses = 0;
                while got.len() < 5_000 && misses < 50_000_000 {
                    match s.pop(tid) {
                        Some(v) => got.push(v),
                        None => misses += 1,
                    }
                }
                got
            }));
        }
        let mut all: Vec<u64> = Vec::new();
        for h in handles {
            all.extend(h.join().unwrap());
        }
        let reg = smr.register(0);
        while let Some(v) = s.pop(0) {
            all.push(v);
        }
        drop(reg);
        assert_eq!(all.len(), 10_000, "no value lost or duplicated");
        let distinct: HashSet<u64> = all.iter().copied().collect();
        assert_eq!(distinct.len(), 10_000);
    }
}
