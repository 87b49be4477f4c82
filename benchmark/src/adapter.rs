//! The one file that names the repository's types.
//!
//! popbench reaches the code under test only through the public API pinned
//! here (README "Pinned API surface"). A PR that changes that API re-points
//! this file in a follow-up `benchmark` issue; nothing else in popbench
//! imports `pop_core`, `pop_ds` or `pop_runtime`.

use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pop_core::slab;
use pop_core::{
    alloc_node, free_node_raw, DomainStats, Ebr, EpochPop, HasHeader, HazardEraPop, HazardPtr,
    HazardPtrPop, Header, ReadResult, Restart, Retired, ShardStats,
};
use pop_ds::hash_map::HashMapHm;
use pop_ds::hml::HmList;
use pop_ds::nm_tree::NmTree;
use pop_runtime::{futex, membarrier, signal, vm};

pub use pop_core::{Smr, SmrConfig, StatsSnapshot};
pub use pop_ds::ConcurrentMap;

use crate::gen::CLIENTS;
use crate::trace::{self, clock, Kind, Pass};

/// Retire-list length that triggers a reclamation pass in every trial.
pub const RECLAIM_FREQ: usize = 2048;
/// Pressure-ladder watermarks (soft, hard, emergency) in unreclaimed nodes.
pub const WATERMARKS: (usize, usize, usize) = (16_384, 32_768, 65_536);

/// The domain configuration every trial uses: library defaults (including
/// the publish mode) except the pass threshold and the pressure watermarks,
/// which are sized so a half-second slice sees many passes.
pub fn domain_config() -> SmrConfig {
    SmrConfig::for_threads(CLIENTS)
        .with_reclaim_freq(RECLAIM_FREQ)
        .with_pressure_watermarks(WATERMARKS.0, WATERMARKS.1, WATERMARKS.2)
}

/// How the library resolved the default publish mode on this host.
pub fn resolved_publish_mode() -> String {
    format!("{:?}", domain_config().resolved_publish_mode()).to_lowercase()
}

/// The five schemes measured, in the order each round runs them: the two
/// anchors (`hp`, which POP replaces, and `ebr`, which EpochPOP approaches)
/// and the paper's three POP schemes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    Hp,
    HpPop,
    HePop,
    Ebr,
    EpochPop,
}

impl Scheme {
    pub const ALL: [Scheme; 5] = [
        Scheme::Hp,
        Scheme::HpPop,
        Scheme::HePop,
        Scheme::Ebr,
        Scheme::EpochPop,
    ];

    /// The name used in metric names.
    pub fn key(self) -> &'static str {
        match self {
            Scheme::Hp => "hp",
            Scheme::HpPop => "hp_pop",
            Scheme::HePop => "he_pop",
            Scheme::Ebr => "ebr",
            Scheme::EpochPop => "epoch_pop",
        }
    }
}

/// The structures the workloads run on, with their construction parameters.
#[derive(Clone, Copy, Debug)]
pub enum Structure {
    /// `HmList`.
    List,
    /// `HashMapHm::for_key_range(key_range, 6)` (the paper's load factor).
    Hash { key_range: u64 },
    /// `NmTree`.
    Tree,
}

/// A domain popbench can run a trial on: one of the five schemes, bare or
/// wrapped in [`Traced`].
pub trait Probe: Smr {
    /// Whether calls into this domain are counted and sampled.
    const TRACED: bool;
}

macro_rules! bare_probe {
    ($($scheme:ty),*) => {$(
        impl Probe for $scheme {
            const TRACED: bool = false;
        }
    )*};
}
bare_probe!(HazardPtr, HazardPtrPop, HazardEraPop, Ebr, EpochPop);

impl<S: Smr> Probe for Traced<S> {
    const TRACED: bool = true;
}

/// A trial body, generic over the scheme and structure it is handed.
pub trait TrialFn {
    type Out;
    fn run<S: Probe, M: ConcurrentMap<S>>(self, make_map: impl FnOnce(Arc<S>) -> M) -> Self::Out;
}

/// Runs `body` on the given scheme × structure, traced or bare.
pub fn dispatch<F: TrialFn>(scheme: Scheme, structure: Structure, traced: bool, body: F) -> F::Out {
    fn on<S: Probe, F: TrialFn>(structure: Structure, body: F) -> F::Out {
        match structure {
            Structure::List => body.run::<S, HmList<S>>(HmList::new),
            Structure::Hash { key_range } => {
                body.run::<S, HashMapHm<S>>(move |smr| HashMapHm::for_key_range(smr, key_range, 6))
            }
            Structure::Tree => body.run::<S, NmTree<S>>(NmTree::new),
        }
    }
    match (scheme, traced) {
        (Scheme::Hp, false) => on::<HazardPtr, F>(structure, body),
        (Scheme::HpPop, false) => on::<HazardPtrPop, F>(structure, body),
        (Scheme::HePop, false) => on::<HazardEraPop, F>(structure, body),
        (Scheme::Ebr, false) => on::<Ebr, F>(structure, body),
        (Scheme::EpochPop, false) => on::<EpochPop, F>(structure, body),
        (Scheme::Hp, true) => on::<Traced<HazardPtr>, F>(structure, body),
        (Scheme::HpPop, true) => on::<Traced<HazardPtrPop>, F>(structure, body),
        (Scheme::HePop, true) => on::<Traced<HazardEraPop>, F>(structure, body),
        (Scheme::Ebr, true) => on::<Traced<Ebr>, F>(structure, body),
        (Scheme::EpochPop, true) => on::<Traced<EpochPop>, F>(structure, body),
    }
}

// ---------------------------------------------------------------------------
// Traced<S>: the outside-in tracing adapter
// ---------------------------------------------------------------------------

/// Implements [`Smr`] by forwarding every method to an inner domain, counting
/// each call and timing the calls of sampled operations (see `trace.rs`).
/// The unchanged structures are instantiated over it, e.g.
/// `HmList<Traced<HazardPtrPop>>`. No scheme overrides `register`, so the
/// trait's default body (which calls `bind_gtid` and `register_raw` below)
/// registers the inner domain correctly.
pub struct Traced<S: Smr> {
    inner: Arc<S>,
}

/// The caller's shard counters that only a reclamation pass advances.
#[derive(PartialEq, Eq)]
struct PassMark {
    freed: u64,
    passes: u64,
    pings: u64,
}

impl PassMark {
    fn read(shard: &ShardStats) -> PassMark {
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        PassMark {
            freed: get(&shard.freed_nodes),
            passes: get(&shard.pop_passes) + get(&shard.epoch_passes),
            pings: get(&shard.pings_sent) + get(&shard.membarriers),
        }
    }
}

#[inline]
fn timed<R>(kind: Kind, call: impl FnOnce() -> R) -> R {
    trace::count(kind);
    if trace::sampling() {
        let start = clock::start();
        let out = call();
        trace::child_span(kind, start, clock::stop(), false);
        out
    } else {
        call()
    }
}

impl<S: Smr> Traced<S> {
    /// Runs a `retire`/`flush` call, logging it as a pass when the caller's
    /// shard counters advanced across it. Outside a sampled operation such a
    /// call costs one unfenced clock read; the second read is taken only
    /// when it turns out to have been a pass.
    #[inline]
    fn reclaiming(&self, kind: Kind, tid: usize, call: impl FnOnce()) {
        trace::count(kind);
        let shard = self.inner.stats().shard(tid);
        let before = PassMark::read(shard);
        let sampled = trace::sampling();
        let start = if sampled {
            clock::start()
        } else {
            clock::coarse()
        };
        call();
        let after = PassMark::read(shard);
        let pass = after != before;
        if !pass && !sampled {
            return;
        }
        let end = clock::stop();
        if pass {
            trace::log_pass(Pass {
                dur: end - start,
                freed: after.freed - before.freed,
                garbage_after: self.inner.stats().unreclaimed_nodes(),
                pings: after.pings - before.pings,
            });
        } else if kind == Kind::Retire {
            trace::log_retire_push(end - start);
        }
        if sampled {
            trace::child_span(kind, start, end, pass);
        }
    }
}

impl<S: Smr> Smr for Traced<S> {
    const NAME: &'static str = S::NAME;
    const ROBUST: bool = S::ROBUST;
    const NEEDS_SIGNALS: bool = S::NEEDS_SIGNALS;

    fn new(cfg: SmrConfig) -> Arc<Self> {
        Arc::new(Traced { inner: S::new(cfg) })
    }

    fn config(&self) -> &SmrConfig {
        self.inner.config()
    }

    fn stats(&self) -> &DomainStats {
        self.inner.stats()
    }

    fn bind_gtid(&self, tid: usize, gtid: usize) {
        self.inner.bind_gtid(tid, gtid)
    }

    fn register_raw(&self, tid: usize) {
        self.inner.register_raw(tid)
    }

    fn unregister(&self, tid: usize) {
        self.inner.unregister(tid)
    }

    #[inline]
    fn begin_op(&self, tid: usize) {
        timed(Kind::BeginOp, || self.inner.begin_op(tid))
    }

    #[inline]
    fn end_op(&self, tid: usize) {
        timed(Kind::EndOp, || self.inner.end_op(tid))
    }

    #[inline]
    fn protect<T>(&self, tid: usize, slot: usize, src: &AtomicPtr<T>) -> ReadResult<T> {
        if trace::protect_due() {
            let start = clock::start();
            let out = self.inner.protect(tid, slot, src);
            trace::child_span(Kind::Protect, start, clock::stop(), false);
            out
        } else {
            self.inner.protect(tid, slot, src)
        }
    }

    #[inline]
    fn check_live<T>(&self, ptr: *mut T) {
        self.inner.check_live(ptr)
    }

    #[inline]
    fn check_restart(&self, tid: usize) -> Result<(), Restart> {
        self.inner.check_restart(tid)
    }

    #[inline]
    fn begin_write(&self, tid: usize, ptrs: &[*mut Header]) -> Result<(), Restart> {
        timed(Kind::BeginWrite, || self.inner.begin_write(tid, ptrs))
    }

    #[inline]
    fn end_write(&self, tid: usize) {
        timed(Kind::EndWrite, || self.inner.end_write(tid))
    }

    unsafe fn retire(&self, tid: usize, retired: Retired) {
        // SAFETY: the caller's contract is forwarded unchanged.
        self.reclaiming(Kind::Retire, tid, || unsafe {
            self.inner.retire(tid, retired)
        })
    }

    #[inline]
    fn current_era(&self) -> u64 {
        self.inner.current_era()
    }

    #[inline]
    fn note_alloc(&self, tid: usize, bytes: usize) {
        trace::count(Kind::NoteAlloc);
        self.inner.note_alloc(tid, bytes)
    }

    #[inline]
    fn note_dealloc_unpublished(&self, tid: usize, bytes: usize) {
        trace::count(Kind::NoteDealloc);
        self.inner.note_dealloc_unpublished(tid, bytes)
    }

    fn flush(&self, tid: usize) {
        self.reclaiming(Kind::Flush, tid, || self.inner.flush(tid))
    }
}

// ---------------------------------------------------------------------------
// The stalled reader
// ---------------------------------------------------------------------------

/// A 48-byte reclaimable node, the size of the list's and the hash map's.
#[repr(C)]
struct PlainNode {
    hdr: Header,
    payload: [u64; 3],
}

// SAFETY: `repr(C)` with the `Header` as the first field.
unsafe impl HasHeader for PlainNode {}

impl PlainNode {
    fn new(era: u64) -> PlainNode {
        PlainNode {
            hdr: Header::new(era, core::mem::size_of::<PlainNode>()),
            payload: [0; 3],
        }
    }
}

/// How long the stalled reader sits in one operation.
pub const STALL: Duration = Duration::from_millis(100);

/// The `stalled-reader` workload's second client: until `deadline` it sits
/// inside an operation, holding a reservation on a node of its own and
/// sleeping, [`STALL`] at a time. It never touches the structure.
pub fn stalled_reader<S: Smr>(smr: &S, tid: usize, deadline: Instant) {
    let node = alloc_node(smr, tid, PlainNode::new(smr.current_era()));
    let link = AtomicPtr::new(node);
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        smr.begin_op(tid);
        let held = smr.protect(tid, 0, &link);
        debug_assert!(held.is_ok_and(|p| p == node));
        std::thread::sleep(left.min(STALL));
        smr.end_op(tid);
    }
    // SAFETY: allocated above, never shared with another thread, freed once.
    unsafe { free_node_raw(node) };
}

// ---------------------------------------------------------------------------
// Isolated costs of the layers the Smr trait cannot intercept
// ---------------------------------------------------------------------------

/// Smallest per-iteration time over `rounds` runs of `batch`, in ns.
fn min_ns_per_iter(rounds: usize, iters: usize, mut batch: impl FnMut()) -> f64 {
    (0..rounds)
        .map(|_| {
            let t = Instant::now();
            batch();
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `slab` layer, single thread: `(alloc_ns, free_ns)` of a 48-byte node.
pub fn probe_slab() -> (f64, f64) {
    const N: usize = 8192;
    let mut nodes: Vec<*mut PlainNode> = Vec::with_capacity(N);
    let (mut alloc_ns, mut free_ns) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..20 {
        alloc_ns = alloc_ns.min(min_ns_per_iter(1, N, || {
            for _ in 0..N {
                nodes.push(slab::alloc_value(PlainNode::new(0), true));
            }
        }));
        free_ns = free_ns.min(min_ns_per_iter(1, N, || {
            for node in nodes.drain(..) {
                // SAFETY: from `alloc_value` above, private, freed once.
                unsafe { slab::free_value(node) };
            }
        }));
    }
    (alloc_ns, free_ns)
}

/// `(mapped_bytes, released_bytes)` of the process-wide slab allocator.
pub fn slab_totals() -> (u64, u64) {
    (
        slab::mapped_slabs() * slab::SLAB_BYTES as u64,
        slab::released_bytes(),
    )
}

/// Isolated costs of the `runtime` layer, in ns.
pub struct RuntimeCost {
    /// `ping_gtid` call alone (min).
    pub ping_send_ns: f64,
    /// `ping_gtid` until the sleeping peer's handler has run (median).
    pub ping_roundtrip_ns: f64,
    /// `membarrier::heavy()` (min); 0 when the host refuses the syscall.
    pub membarrier_ns: f64,
    /// Futex wake until the parked peer is running again (median).
    pub futex_roundtrip_ns: f64,
    /// `aligned_map` + first touch + `release_pages` + `unmap` of one slab.
    pub vm_map_release_ns: f64,
}

struct CountingPublisher {
    published: AtomicU64,
}

impl signal::Publisher for CountingPublisher {
    fn publish(&self, _gtid: usize) {
        self.published.fetch_add(1, Ordering::SeqCst);
    }
}

static PUBLISHER: CountingPublisher = CountingPublisher {
    published: AtomicU64::new(0),
};

fn spin_until(what: &str, done: impl Fn() -> bool) {
    let start = Instant::now();
    while !done() {
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "{what}: no answer in 5 s"
        );
        std::hint::spin_loop();
    }
}

fn spin_for(span: Duration) {
    let start = Instant::now();
    while start.elapsed() < span {
        std::hint::spin_loop();
    }
}

fn median_ns(mut samples: Vec<u32>) -> f64 {
    samples.sort_unstable();
    crate::stats::percentile(&samples, 0.5)
}

/// Measures the `runtime` layer against one registered, sleeping peer.
/// Registers a publisher slot, so call it at most once per process.
pub fn probe_runtime() -> RuntimeCost {
    const ITERS: usize = 200;
    /// Long enough for the peer to be asleep again before the next poke.
    const SETTLE: Duration = Duration::from_micros(60);

    let handle = signal::register_publisher(&PUBLISHER);
    let stop = AtomicBool::new(false);
    let gtid = AtomicU64::new(u64::MAX);
    let (mut send, mut ping_rt) = (f64::INFINITY, Vec::with_capacity(ITERS));
    std::thread::scope(|s| {
        s.spawn(|| {
            let me = pop_runtime::register_current_shared();
            gtid.store(me.gtid() as u64, Ordering::SeqCst);
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(2));
            }
        });
        spin_until("peer registration", || {
            gtid.load(Ordering::SeqCst) != u64::MAX
        });
        let peer = gtid.load(Ordering::SeqCst) as usize;
        for _ in 0..ITERS {
            spin_for(SETTLE);
            let seen = PUBLISHER.published.load(Ordering::SeqCst);
            let start = Instant::now();
            let outcome = signal::ping_gtid(peer);
            send = send.min(start.elapsed().as_nanos() as f64);
            assert!(
                matches!(outcome, pop_runtime::PingOutcome::Sent),
                "ping of a live peer: {outcome:?}"
            );
            spin_until("ping handler", || {
                PUBLISHER.published.load(Ordering::SeqCst) != seen
            });
            ping_rt.push(start.elapsed().as_nanos() as u32);
        }
        stop.store(true, Ordering::SeqCst);
    });
    handle.deactivate();

    let word = AtomicU32::new(0);
    let ack = AtomicU32::new(0);
    let mut futex_rt = Vec::with_capacity(ITERS);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..ITERS as u32 {
                while word.load(Ordering::SeqCst) == round {
                    futex::wait_timeout(&word, round, 1_000_000_000);
                }
                ack.store(round + 1, Ordering::SeqCst);
            }
        });
        for round in 0..ITERS as u32 {
            spin_for(SETTLE);
            let start = Instant::now();
            word.store(round + 1, Ordering::SeqCst);
            futex::wake_all(&word);
            spin_until("futex peer", || ack.load(Ordering::SeqCst) == round + 1);
            futex_rt.push(start.elapsed().as_nanos() as u32);
        }
    });

    let membarrier_ns = if membarrier::is_available() {
        min_ns_per_iter(ITERS, 1, || {
            assert!(membarrier::heavy(), "membarrier was reported available");
        })
    } else {
        0.0
    };

    let vm_map_release_ns = min_ns_per_iter(ITERS, 1, || {
        let base = vm::aligned_map(slab::SLAB_BYTES, slab::SLAB_BYTES).expect("mapping one slab");
        // SAFETY: `base` is a fresh private mapping of SLAB_BYTES bytes,
        // written once, released and unmapped exactly once.
        unsafe {
            base.write_volatile(1);
            vm::release_pages(base, slab::SLAB_BYTES);
            vm::unmap(base, slab::SLAB_BYTES);
        }
    });

    RuntimeCost {
        ping_send_ns: send,
        ping_roundtrip_ns: median_ns(ping_rt),
        membarrier_ns,
        futex_roundtrip_ns: median_ns(futex_rt),
        vm_map_release_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drives a structure over a traced domain on one thread and compares
    /// the adapter's call counts with the domain's own counters.
    struct CountCheck;

    impl TrialFn for CountCheck {
        type Out = ();

        fn run<S: Probe, M: ConcurrentMap<S>>(self, make_map: impl FnOnce(Arc<S>) -> M) {
            assert!(S::TRACED);
            let smr = S::new(domain_config());
            let map = make_map(Arc::clone(&smr));
            let reg = smr.register(0);
            let _ = trace::take();
            for round in 0..3u64 {
                for key in 0..5_000u64 {
                    assert!(map.insert(0, key, key + round));
                }
                for key in 0..5_000u64 {
                    assert_eq!(map.get(0, key), Some(key + round));
                    assert!(map.remove(0, key));
                }
            }
            drop(reg); // unregister flushes, which seals the open retire bins
            let (calls, log) = trace::take();
            let stats = smr.stats().snapshot();
            let of = |kind: Kind| calls[kind as usize];
            assert_eq!(
                of(Kind::Retire),
                stats.retired_nodes,
                "{}: retire calls",
                S::NAME
            );
            assert_eq!(of(Kind::Retire), 15_000);
            assert_eq!(
                of(Kind::NoteAlloc) - of(Kind::NoteDealloc),
                stats.allocated_nodes,
                "{}: note_alloc calls",
                S::NAME
            );
            assert_eq!(of(Kind::BeginOp), of(Kind::EndOp));
            assert!(of(Kind::BeginOp) >= 45_000 && of(Kind::Protect) >= 45_000);
            // 15 000 retires against a threshold of 2048: a handful of passes,
            // each seen by the classifier, none outside a sampled operation
            // leaving a span behind.
            let expected = 15_000 / RECLAIM_FREQ;
            assert!(
                (expected / 2..=expected * 2 + 1).contains(&log.passes.len()),
                "{}: {} passes",
                S::NAME,
                log.passes.len()
            );
            assert!(log.passes.iter().all(|p| p.dur > 0 && p.freed <= 15_000));
            assert!(log.spans.is_empty(), "no operation was sampled");
        }
    }

    #[test]
    fn traced_call_counts_agree_with_the_domains_own_counters() {
        for scheme in Scheme::ALL {
            // A thread per scheme: the adapter's counts are thread-local.
            std::thread::spawn(move || {
                dispatch(
                    scheme,
                    Structure::Hash { key_range: 5_000 },
                    true,
                    CountCheck,
                )
            })
            .join()
            .unwrap();
        }
    }

    #[test]
    fn the_slab_probe_reads_plausible_costs() {
        let (alloc_ns, free_ns) = probe_slab();
        assert!(alloc_ns > 0.1 && alloc_ns < 10_000.0, "alloc {alloc_ns}");
        assert!(free_ns > 0.1 && free_ns < 10_000.0, "free {free_ns}");
        let (mapped, _released) = slab_totals();
        assert!(mapped >= slab::SLAB_BYTES as u64);
    }

    #[test]
    fn the_stalled_reader_holds_its_reservation_until_the_deadline() {
        let smr = HazardPtrPop::new(domain_config());
        let reg = smr.register(1);
        let start = Instant::now();
        stalled_reader(&*smr, reg.tid(), start + Duration::from_millis(30));
        assert!(start.elapsed() >= Duration::from_millis(30));
        assert!(
            start.elapsed() < STALL,
            "sleeps no longer than the deadline"
        );
        let stats = smr.stats().snapshot();
        assert_eq!((stats.allocated_nodes, stats.retired_nodes), (1, 0));
    }
}
