//! Michael-Scott lock-free FIFO queue under generic SMR.
//!
//! The second half of Michael's 2004 evaluation pair (hazard pointers were
//! introduced on exactly this structure). Dequeue reads the value out of
//! the *successor* node and retires the old dummy — the classic pattern
//! where a node is accessed after it has been unlinked, i.e. precisely the
//! access SMR must keep safe.

use core::sync::atomic::{AtomicPtr, Ordering};
use std::sync::Arc;

use pop_core::{
    alloc_node, as_header, free_node_raw, retire_node, HasHeader, Header, Restart, Smr,
};

use crate::Value;

/// Queue node. `#[repr(C)]`, header first.
#[repr(C)]
pub struct QueueNode {
    hdr: Header,
    value: Value,
    next: AtomicPtr<QueueNode>,
}

// SAFETY: repr(C) with Header as the first field.
unsafe impl HasHeader for QueueNode {}

impl QueueNode {
    fn alloc<S: Smr>(smr: &S, tid: usize, value: Value) -> *mut QueueNode {
        alloc_node(
            smr,
            tid,
            QueueNode {
                hdr: Header::new(smr.current_era(), core::mem::size_of::<QueueNode>()),
                value,
                next: AtomicPtr::new(core::ptr::null_mut()),
            },
        )
    }
}

/// Hazard slots a dequeue uses: the dummy and its successor (the domain
/// must have at least this many).
pub const SLOTS_REQUIRED: usize = 2;

/// A lock-free FIFO queue.
pub struct MsQueue<S: Smr> {
    head: AtomicPtr<QueueNode>,
    tail: AtomicPtr<QueueNode>,
    smr: Arc<S>,
}

// SAFETY: shared state is atomics; nodes are managed by the SMR domain.
unsafe impl<S: Smr> Send for MsQueue<S> {}
// SAFETY: every shared mutation is a CAS on `head`, `tail` or a node's
// link, and every dereference of a shared node goes through `S::protect`.
unsafe impl<S: Smr> Sync for MsQueue<S> {}

impl<S: Smr> MsQueue<S> {
    /// Creates an empty queue (with its dummy node).
    pub fn new(smr: Arc<S>) -> Self {
        crate::assert_slots(&*smr, SLOTS_REQUIRED, "MsQueue");
        let dummy = QueueNode::alloc(&*smr, 0, 0);
        MsQueue {
            head: AtomicPtr::new(dummy),
            tail: AtomicPtr::new(dummy),
            smr,
        }
    }

    /// The reclamation domain.
    pub fn smr(&self) -> &Arc<S> {
        &self.smr
    }

    fn try_enqueue(&self, tid: usize, node: *mut QueueNode) -> Result<(), Restart> {
        let row = self.smr.row(tid);
        let tail = self.smr.protect_in(&row, 0, &self.tail)?;
        // `self.tail` is a root: a validated read is always reachable.
        self.smr.check_live(tail);
        // SAFETY: tail is protected (validated against self.tail).
        let tail_ref = unsafe { &*tail };
        let next = tail_ref.next.load(Ordering::Acquire);
        if !next.is_null() {
            // Tail lags; help swing it and retry.
            let _ = self
                .tail
                .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
            return Err(Restart);
        }
        self.smr.begin_write(tid, &[as_header(tail)])?;
        let ok = tail_ref
            .next
            .compare_exchange(
                core::ptr::null_mut(),
                node,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_ok();
        if ok {
            let _ = self
                .tail
                .compare_exchange(tail, node, Ordering::AcqRel, Ordering::Acquire);
        }
        self.smr.end_write(tid);
        if ok {
            Ok(())
        } else {
            Err(Restart)
        }
    }

    /// Appends a value at the tail.
    pub fn enqueue(&self, tid: usize, value: Value) {
        let node = QueueNode::alloc(&*self.smr, tid, value);
        loop {
            self.smr.begin_op(tid);
            let r = self.try_enqueue(tid, node);
            self.smr.end_op(tid);
            if r.is_ok() {
                return;
            }
        }
    }

    fn try_dequeue(&self, tid: usize) -> Result<Option<Value>, Restart> {
        let row = self.smr.row(tid);
        let head = self.smr.protect_in(&row, 0, &self.head)?;
        // `self.head` is a root: a validated read is always reachable.
        self.smr.check_live(head);
        // SAFETY: head (the dummy) is protected.
        let next = self.smr.protect_in(&row, 1, unsafe { &(*head).next })?;
        if next.is_null() {
            return Ok(None);
        }
        // next is reachable through the still-protected dummy.
        self.smr.check_live(next);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            // Help swing the lagging tail.
            let _ = self
                .tail
                .compare_exchange(tail, next, Ordering::AcqRel, Ordering::Acquire);
        }
        self.smr
            .begin_write(tid, &[as_header(head), as_header(next)])?;
        let ok = self
            .head
            .compare_exchange(head, next, Ordering::AcqRel, Ordering::Acquire)
            .is_ok();
        let value = if ok {
            // The dequeued value lives in the *new* dummy; reading it after
            // the CAS is safe because `next` is protected in slot 1.
            // SAFETY: next protected above.
            let v = unsafe { &*next }.value;
            // SAFETY: the old dummy is unlinked; we won the CAS.
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

    /// Removes the oldest value, or `None` when empty.
    pub fn dequeue(&self, tid: usize) -> Option<Value> {
        loop {
            self.smr.begin_op(tid);
            let r = self.try_dequeue(tid);
            self.smr.end_op(tid);
            match r {
                Ok(v) => return v,
                Err(Restart) => continue,
            }
        }
    }
}

impl<S: Smr> Drop for MsQueue<S> {
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
    use pop_core::{EpochPop, HazardPtrPop, SmrConfig};

    #[test]
    fn fifo_order_single_thread() {
        let smr = HazardPtrPop::new(SmrConfig::for_tests(1).with_reclaim_freq(8));
        let q = MsQueue::new(Arc::clone(&smr));
        let reg = smr.register(0);
        assert_eq!(q.dequeue(0), None);
        for v in 0..20u64 {
            q.enqueue(0, v);
        }
        for v in 0..20u64 {
            assert_eq!(q.dequeue(0), Some(v));
        }
        assert_eq!(q.dequeue(0), None);
        smr.flush(0);
        // Dummy rotation retires one node per dequeue.
        assert_eq!(smr.stats().snapshot().retired_nodes, 20);
        assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
        drop(reg);
    }

    #[test]
    fn spsc_preserves_order_under_reclaim() {
        let smr = EpochPop::new(SmrConfig::for_tests(2).with_reclaim_freq(16));
        let q = Arc::new(MsQueue::new(Arc::clone(&smr)));
        let producer = std::thread::spawn({
            let q = Arc::clone(&q);
            move || {
                let _reg = q.smr().register(0);
                for v in 0..20_000u64 {
                    q.enqueue(0, v);
                }
            }
        });
        let consumer = std::thread::spawn({
            let q = Arc::clone(&q);
            move || {
                let _reg = q.smr().register(1);
                let mut expect = 0u64;
                while expect < 20_000 {
                    if let Some(v) = q.dequeue(1) {
                        assert_eq!(v, expect, "FIFO order violated");
                        expect += 1;
                    }
                }
            }
        });
        producer.join().unwrap();
        consumer.join().unwrap();
        let s = smr.stats().snapshot();
        assert_eq!(s.retired_nodes, 20_000);
    }
}
