//! Stress coverage for the sharded [`pop_core::DomainStats`].
//!
//! Two laws under concurrency:
//!
//! 1. **Conservation** — once all writers join, `snapshot()` totals equal
//!    the sum of every thread's locally-counted events, regardless of which
//!    shard each event landed on.
//! 2. **No underflow** — aggregate differences (`unreclaimed_nodes`,
//!    `live_nodes`) never wrap when a racing reader observes a free (on the
//!    reclaimer's shard) before the matching retire (on another shard).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use pop_core::{retire_node, DomainStats, Ebr, HasHeader, HazardPtrPop, Header, Smr, SmrConfig};

#[repr(C)]
struct N {
    hdr: Header,
    v: u64,
}
unsafe impl HasHeader for N {}

fn alloc<S: Smr>(smr: &S, tid: usize, v: u64) -> *mut N {
    smr.note_alloc(tid, core::mem::size_of::<N>());
    Box::into_raw(Box::new(N {
        hdr: Header::new(smr.current_era(), core::mem::size_of::<N>()),
        v,
    }))
}

#[test]
fn snapshot_totals_equal_sum_of_per_thread_events() {
    const THREADS: usize = 4;
    const EVENTS: u64 = 10_000;
    let stats = Arc::new(DomainStats::new(THREADS));
    let start = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let stats = Arc::clone(&stats);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            start.wait();
            let shard = stats.shard(t);
            let mut local = (0u64, 0u64, 0u64);
            for i in 0..EVENTS {
                shard.retired_nodes.fetch_add(1, Ordering::Relaxed);
                local.0 += 1;
                if i % 2 == 0 {
                    shard.freed_nodes.fetch_add(1, Ordering::Relaxed);
                    local.1 += 1;
                }
                if i % 3 == 0 {
                    shard.allocated_bytes.fetch_add(64, Ordering::Relaxed);
                    local.2 += 64;
                }
            }
            local
        }));
    }
    let mut retired = 0;
    let mut freed = 0;
    let mut bytes = 0;
    for h in handles {
        let (r, f, b) = h.join().unwrap();
        retired += r;
        freed += f;
        bytes += b;
    }
    let s = stats.snapshot();
    assert_eq!(s.retired_nodes, retired);
    assert_eq!(s.freed_nodes, freed);
    assert_eq!(s.allocated_bytes, bytes);
    assert_eq!(s.unreclaimed_nodes(), retired - freed);
}

#[test]
fn racing_snapshot_reader_never_underflows() {
    // Writers pump paired retire+free increments on *different* shards
    // (retire on shard t, free on shard (t+1) % W) while a reader polls the
    // aggregates. A torn read may transiently see freed > retired; the
    // saturating aggregation must clamp, never wrap.
    const WRITERS: usize = 3;
    let stats = Arc::new(DomainStats::new(WRITERS));
    let stop = Arc::new(AtomicBool::new(false));

    let reader = {
        let stats = Arc::clone(&stats);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut polls = 0u64;
            while !stop.load(Ordering::Acquire) {
                let u = stats.unreclaimed_nodes();
                let l = stats.live_nodes();
                assert!(
                    u < u64::MAX / 2 && l < u64::MAX / 2,
                    "aggregate wrapped: unreclaimed={u} live={l}"
                );
                let snap = stats.snapshot();
                assert!(snap.unreclaimed_nodes() < u64::MAX / 2);
                polls += 1;
            }
            polls
        })
    };

    let mut writers = Vec::new();
    for t in 0..WRITERS {
        let stats = Arc::clone(&stats);
        writers.push(std::thread::spawn(move || {
            for _ in 0..200_000u64 {
                // Free counted on a *different* shard than the retire, and
                // written first, maximizing the freed-before-retired window
                // for the reader.
                stats
                    .shard((t + 1) % WRITERS)
                    .freed_nodes
                    .fetch_add(1, Ordering::Relaxed);
                stats.shard(t).retired_nodes.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }
    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let polls = reader.join().unwrap();
    assert!(polls > 0, "reader must actually have raced the writers");
    // Conservation after the dust settles.
    let s = stats.snapshot();
    assert_eq!(s.retired_nodes, (WRITERS as u64) * 200_000);
    assert_eq!(s.freed_nodes, (WRITERS as u64) * 200_000);
    assert_eq!(s.unreclaimed_nodes(), 0);
}

#[test]
fn scheme_totals_survive_cross_thread_reclamation() {
    // End-to-end: events counted through a real scheme land on multiple
    // shards (retires on the retirer, frees on whichever thread reclaimed),
    // yet the aggregate equals the ground truth.
    const THREADS: usize = 3;
    const PER_THREAD: u64 = 2_000;
    let smr = HazardPtrPop::new(SmrConfig::for_tests(THREADS).with_reclaim_freq(32));
    let start = Arc::new(Barrier::new(THREADS));
    let mut handles = Vec::new();
    for t in 0..THREADS {
        let smr = Arc::clone(&smr);
        let start = Arc::clone(&start);
        handles.push(std::thread::spawn(move || {
            let reg = smr.register(t);
            start.wait();
            for i in 0..PER_THREAD {
                smr.begin_op(t);
                let p = alloc(&*smr, t, i);
                unsafe { retire_node(&*smr, t, p) };
                smr.end_op(t);
            }
            smr.flush(t);
            drop(reg);
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let s = smr.stats().snapshot();
    assert_eq!(s.allocated_nodes, (THREADS as u64) * PER_THREAD);
    assert_eq!(s.retired_nodes, (THREADS as u64) * PER_THREAD);
    assert_eq!(s.unreclaimed_nodes(), 0, "all drained: {s:?}");
    assert_eq!(s.freed_nodes, s.retired_nodes);
}

#[test]
fn sampler_style_polling_under_ebr_churn() {
    // Mimics the workload Sampler: one thread polls live_bytes() on a
    // period while workers churn; the poll must stay within the bytes ever
    // allocated and never wrap.
    const THREADS: usize = 2;
    let smr = Ebr::new(SmrConfig::for_tests(THREADS).with_reclaim_freq(16));
    let stop = Arc::new(AtomicBool::new(false));
    // One allocation stays live for the whole run so the sampler observes
    // non-zero memory no matter how the scheduler interleaves the churn.
    let pinned = alloc(&*smr, 0, 0);
    let sampler = {
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut peak = 0u64;
            // Sample before the first `stop` check: a sampler scheduled
            // only after the workers finished must still take one reading.
            loop {
                let b = smr.stats().live_bytes();
                assert!(b < u64::MAX / 2, "live_bytes wrapped: {b}");
                peak = peak.max(b);
                if stop.load(Ordering::Acquire) {
                    break peak;
                }
            }
        })
    };
    let mut workers = Vec::new();
    // The final flush runs only after every worker is quiescent, so no
    // announced epoch can block a free (which would orphan leftovers to
    // the domain and defer their accounting to domain drop).
    let done = Arc::new(Barrier::new(THREADS));
    for t in 0..THREADS {
        let smr = Arc::clone(&smr);
        let done = Arc::clone(&done);
        workers.push(std::thread::spawn(move || {
            let reg = smr.register(t);
            for i in 0..20_000u64 {
                smr.begin_op(t);
                let p = alloc(&*smr, t, i);
                unsafe { retire_node(&*smr, t, p) };
                smr.end_op(t);
            }
            done.wait();
            smr.flush(t);
            drop(reg);
        }));
    }
    for w in workers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::Release);
    let peak = sampler.join().unwrap();
    assert!(peak > 0, "sampler must observe live memory at some point");
    assert_eq!(smr.stats().live_nodes(), 1, "only the pinned node remains");
    // SAFETY: never shared; free directly and reverse its accounting.
    unsafe { drop(Box::from_raw(pinned)) };
    smr.note_dealloc_unpublished(0, core::mem::size_of::<N>());
    assert_eq!(smr.stats().live_nodes(), 0);
}
