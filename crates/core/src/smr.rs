//! The scheme-generic safe-memory-reclamation interface.
//!
//! All twelve schemes implement [`Smr`]; concurrent data structures are
//! written once against it. The interface mirrors the programmer's view of
//! hazard pointers from the paper (§4.1.1): `read` (here [`Smr::protect`]),
//! `clear` (what [`Smr::end_op`] means, however a scheme implements it) and
//! `retire`, extended with the epoch-style operation brackets
//! (`begin_op`/`end_op`) and NBR's write-phase bracket
//! (`begin_write`/`end_write`) so that restart-based and epoch-based schemes
//! fit the same call sites. For schemes that don't need a bracket the calls
//! are no-ops and compile away under monomorphization.

use core::sync::atomic::AtomicPtr;
use std::sync::Arc;

use crate::config::SmrConfig;
use crate::header::{Header, Retired};
use crate::stats::DomainStats;

/// Request to restart the current operation from its entry point.
///
/// Only returned by neutralization-based schemes (NBR+); all other schemes'
/// `protect`/`begin_write` never fail. Data-structure operations propagate
/// it with `?` and re-run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Restart;

/// Result of a protected read.
pub type ReadResult<T> = Result<*mut T, Restart>;

/// A safe-memory-reclamation scheme (one instance = one *domain*).
///
/// # Thread model
///
/// A domain serves `config().max_threads` participants addressed by small
/// *domain thread ids* (`tid`). Each participant calls
/// [`Smr::register`] **on its own OS thread** and uses the returned guard's
/// tid for every subsequent call from that thread. Registration enforces
/// exclusivity (double-claiming a tid panics), which is what makes the
/// internally `UnsafeCell`-based retire lists sound.
///
/// # Operation protocol (matches the paper's pseudocode)
///
/// ```text
/// begin_op(tid);
/// loop over nodes:  p = protect(tid, slot, &link)?;   // Alg.1 read()
/// for updates:      begin_write(tid, &[ptrs])?;  CAS;  retire(tid, r);  end_write(tid);
/// end_op(tid);                                         // Alg.1 clear()
/// ```
///
/// A pointer returned by `protect` is protected only from that call until
/// the enclosing bracket's `end_op`; no scheme protects a reader outside
/// its bracket (EBR has no announcement there, HP has cleared its slots,
/// the POP schemes publish nothing for a quiescent thread).
///
/// `retire` must be called inside a `begin_write`/`end_write` bracket (the
/// unlinking CAS and the retirement form NBR's write phase; for all other
/// schemes the bracket is free).
pub trait Smr: Send + Sync + Sized + 'static {
    /// Scheme name as used in the paper's plots (e.g. `"HazardPtrPOP"`).
    const NAME: &'static str;
    /// Whether the scheme bounds unreclaimed garbage under thread delays
    /// (the paper's robustness property).
    const ROBUST: bool;
    /// Whether threads must be signalable (registers with the process
    /// registry so reclaimers can ping them).
    const NEEDS_SIGNALS: bool;

    /// Creates a domain.
    fn new(cfg: SmrConfig) -> Arc<Self>;

    /// The domain's configuration.
    fn config(&self) -> &SmrConfig;

    /// The domain's instrumentation counters.
    fn stats(&self) -> &DomainStats;

    /// Registers the calling thread under `tid`, returning an RAII guard.
    ///
    /// Panics if `tid` is out of range or already claimed.
    fn register(self: &Arc<Self>, tid: usize) -> Registration<Self> {
        let signal = if Self::NEEDS_SIGNALS {
            let s = pop_runtime::register_current_shared();
            self.bind_gtid(tid, s.gtid());
            Some(s)
        } else {
            None
        };
        self.register_raw(tid);
        Registration {
            smr: Arc::clone(self),
            tid,
            _signal: signal,
        }
    }

    /// Associates domain `tid` with a global (signalable) thread id.
    /// Overridden by signal-based schemes; no-op otherwise.
    fn bind_gtid(&self, _tid: usize, _gtid: usize) {}

    /// Claims `tid` and initializes per-thread state. Prefer
    /// [`Smr::register`], which also handles signal registration.
    fn register_raw(&self, tid: usize);

    /// Releases `tid`: flushes the retire list (reclaiming what it can,
    /// orphaning the rest to the domain) and clears reservations.
    fn unregister(&self, tid: usize);

    /// Operation prologue (epoch announcement for EBR-family schemes).
    fn begin_op(&self, tid: usize);

    /// Operation epilogue — the paper's `clear()`: every reservation made
    /// since `begin_op` is dropped. *How* is the scheme's business: HP
    /// zeroes its published slots, EBR withdraws its announcement, and the
    /// POP schemes only mark the thread quiescent — their reservation row
    /// is private until pinged, and a ping publishes it if its owner is
    /// inside an operation and publishes nothing otherwise.
    fn end_op(&self, tid: usize);

    /// Protected read of `src` into hazard `slot` — the paper's `read()`.
    ///
    /// Returns the pointer read from `src`, possibly carrying data-structure
    /// mark bits (reservations are recorded unmarked). `Err(Restart)` only
    /// for neutralization-based schemes.
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T>;

    /// Quarantine use-after-free oracle: asserts `ptr` (mark bits ignored)
    /// has not been freed. No-op unless [`SmrConfig::quarantine`] is set.
    ///
    /// Data structures must call this at the point where a protected
    /// pointer is confirmed reachable and about to be dereferenced — i.e.
    /// *after* their mark/flag re-checks. Calling it directly on every
    /// `protect` result would mis-fire: a traversal may legally read a
    /// dangling pointer out of a dead (but still reserved) node's stale
    /// edge, provided it discards the value after seeing the dead node's
    /// mark.
    #[inline]
    fn check_live<T>(&self, ptr: *mut T) {
        if self.config().quarantine {
            let word = crate::header::unmark_word(ptr as u64);
            if word != 0 {
                let hdr = word as *const Header;
                assert!(
                    // SAFETY: quarantined allocations are never unmapped.
                    !unsafe { &*hdr }.is_poisoned(),
                    "use-after-free: dereferencing a freed node ({ptr:p})"
                );
            }
        }
    }

    /// Polls for a pending neutralization request (NBR) — data structures
    /// must call this inside spin loops that do not otherwise go through
    /// [`Smr::protect`] (e.g. waiting on a node lock), so a reclaimer is
    /// never left waiting on a spinning reader. No-op for other schemes.
    #[inline]
    fn check_restart(&self, _tid: usize) -> Result<(), Restart> {
        Ok(())
    }

    /// Enters the write phase, reserving `ptrs` for schemes that need
    /// explicit pre-write reservations (NBR). Must precede any structural
    /// CAS; pass every pointer the write will dereference or unlink.
    fn begin_write(&self, _tid: usize, _ptrs: &[*mut Header]) -> Result<(), Restart> {
        Ok(())
    }

    /// Leaves the write phase.
    fn end_write(&self, _tid: usize) {}

    /// Retires an unlinked object; may trigger a reclamation pass.
    ///
    /// # Safety
    ///
    /// The object must be unlinked from every shared structure, retired
    /// exactly once, and the call must come from the thread owning `tid`,
    /// inside a `begin_write` bracket.
    unsafe fn retire(&self, tid: usize, retired: Retired);

    /// Global era for birth-tagging allocations (0 for era-free schemes).
    fn current_era(&self) -> u64 {
        0
    }

    /// Accounts a node allocation of `bytes` bytes on `tid`'s stat shard.
    ///
    /// This is a hot-path call (once per insert); the shard keeps the
    /// increment on a cache line owned by the calling thread.
    fn note_alloc(&self, tid: usize, bytes: usize) {
        use core::sync::atomic::Ordering::Relaxed;
        let shard = self.stats().shard(tid);
        shard.allocated_nodes.fetch_add(1, Relaxed);
        shard.allocated_bytes.fetch_add(bytes as u64, Relaxed);
    }

    /// Reverses [`Smr::note_alloc`] for a node that was deallocated before
    /// ever being published (e.g. a failed insert CAS). Must run on the
    /// same `tid` that noted the allocation, keeping each shard's counters
    /// individually non-negative.
    fn note_dealloc_unpublished(&self, tid: usize, bytes: usize) {
        use core::sync::atomic::Ordering::Relaxed;
        let shard = self.stats().shard(tid);
        shard.allocated_nodes.fetch_sub(1, Relaxed);
        shard.allocated_bytes.fetch_sub(bytes as u64, Relaxed);
    }

    /// Aggressively attempts to reclaim `tid`'s retire list regardless of
    /// thresholds (shutdown and tests).
    fn flush(&self, tid: usize);
}

/// RAII thread registration for a reclamation domain.
///
/// Bound to the registering OS thread (not `Send`); dropping it flushes and
/// releases the tid. The process-registry handle (for signal-based schemes)
/// is released after the domain-level unregistration, so a thread remains
/// pingable for exactly as long as it participates.
pub struct Registration<S: Smr> {
    smr: Arc<S>,
    tid: usize,
    _signal: Option<pop_runtime::SharedRegistration>,
}

impl<S: Smr> Registration<S> {
    /// The registered domain thread id.
    pub fn tid(&self) -> usize {
        self.tid
    }

    /// The domain this registration belongs to.
    pub fn domain(&self) -> &Arc<S> {
        &self.smr
    }
}

impl<S: Smr> Drop for Registration<S> {
    fn drop(&mut self) {
        self.smr.unregister(self.tid);
    }
}

/// RAII operation bracket: `begin_op` on construction, `end_op` on drop.
///
/// The panic-safety primitive for code that can unwind mid-operation
/// (assertion failures in tests, oracle panics under quarantine): an
/// operation abandoned by an unwinding thread still runs its epilogue, so
/// its epoch announcement / reservations / activity word are cleared and
/// reclaimers never wait on (or keep garbage for) an operation that no
/// longer exists. Schemes whose `end_op` is a no-op compile it away.
///
/// Not `Send` (holds the registering thread's `tid` by contract), and
/// borrows the domain, so it cannot outlive it.
pub struct OpGuard<'a, S: Smr> {
    smr: &'a S,
    tid: usize,
}

impl<'a, S: Smr> OpGuard<'a, S> {
    /// Enters an operation bracket on `tid`.
    ///
    /// Caller contract: same as [`Smr::begin_op`] — `tid` is registered to
    /// the calling thread, and brackets do not nest.
    pub fn enter(smr: &'a S, tid: usize) -> Self {
        smr.begin_op(tid);
        OpGuard { smr, tid }
    }

    /// The bracketed domain thread id.
    pub fn tid(&self) -> usize {
        self.tid
    }
}

impl<S: Smr> Drop for OpGuard<'_, S> {
    fn drop(&mut self) {
        self.smr.end_op(self.tid);
    }
}

/// Convenience: protect repeatedly until a non-restarting scheme succeeds —
/// used by single-threaded tests and examples where `Restart` is impossible
/// yet the type system requires handling it.
pub fn protect_infallible<S: Smr, T>(
    smr: &S,
    tid: usize,
    slot: usize,
    src: &AtomicPtr<T>,
) -> *mut T {
    loop {
        if let Ok(p) = smr.protect(tid, slot, src) {
            return p;
        }
    }
}

/// Helper: retire a typed node allocated with [`alloc_node`] (wraps
/// [`Retired::new`] — which captures the header's birth era and slab bit
/// into the record — and the retire-era stamp common to every call site).
///
/// # Safety
///
/// Same contract as [`Smr::retire`].
pub unsafe fn retire_node<S: Smr, T: crate::header::HasHeader>(smr: &S, tid: usize, node: *mut T) {
    // SAFETY: forwarded contract — node is unlinked and retired once.
    unsafe {
        let mut r = Retired::new(node);
        r.set_retire_era(smr.current_era());
        smr.retire(tid, r);
    }
}

/// Allocates a reclaimable node for `smr`'s domain: slab-backed when `T`
/// fits a slab size class (counted as `slab_allocs` on `tid`'s shard),
/// `Box`-backed only for larger types. Either way the allocation is
/// accounted via [`Smr::note_alloc`] and must be released through
/// [`retire_node`], [`dealloc_node_unpublished`] or [`free_node_raw`] —
/// never a bare `Box::from_raw`.
pub fn alloc_node<S: Smr, T: crate::header::HasHeader>(smr: &S, tid: usize, value: T) -> *mut T {
    use core::sync::atomic::Ordering::Relaxed;
    smr.note_alloc(tid, core::mem::size_of::<T>());
    let p = crate::slab::alloc_value(value, true);
    // SAFETY: freshly allocated above, exclusively owned.
    if unsafe { (*p).header().is_slab_backed() } {
        smr.stats().shard(tid).slab_allocs.fetch_add(1, Relaxed);
    }
    p
}

/// Frees a node that was never published to the shared structure (e.g. a
/// failed insert CAS), reversing [`alloc_node`]'s accounting.
///
/// # Safety
///
/// `node` must come from [`alloc_node`] on this domain, be unpublished (no
/// other thread ever saw it), and not be freed again. Must run on the same
/// `tid` that allocated it.
pub unsafe fn dealloc_node_unpublished<S: Smr, T: crate::header::HasHeader>(
    smr: &S,
    tid: usize,
    node: *mut T,
) {
    // SAFETY: forwarded contract — exclusively owned, freed once; the slab
    // bit picks the matching free path.
    unsafe { crate::slab::free_value(node) };
    smr.note_dealloc_unpublished(tid, core::mem::size_of::<T>());
}

/// Frees a node during structure teardown (`Drop` walks), dispatching on
/// the header's slab bit. The replacement for the bare `Box::from_raw` that
/// teardown paths used before owned slabs existed — calling that on a slab
/// slot is undefined behavior.
///
/// # Safety
///
/// `node` must be a live allocation from [`alloc_node`] /
/// [`crate::slab::alloc_value`] (or `Box::into_raw`), unreachable by every
/// other thread, and not freed again.
pub unsafe fn free_node_raw<T: crate::header::HasHeader>(node: *mut T) {
    // SAFETY: forwarded contract.
    unsafe { crate::slab::free_value(node) }
}

/// Erases a typed node pointer to the header pointer used by
/// [`Smr::begin_write`] reservation lists.
pub fn as_header<T: crate::header::HasHeader>(p: *mut T) -> *mut Header {
    p as *mut Header
}
