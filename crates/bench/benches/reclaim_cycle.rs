//! Full retire→reclaim cycle cost per scheme: the amortized price of a
//! reclamation event (scan/ping/free), measured by driving insert+delete
//! pairs through a list with a small retire threshold — plus an isolated
//! reclamation-**pass** cost measurement at 1, 4 and 8 registered threads
//! that makes the allocation-free + quiescent-ping-filter work visible in
//! the bench trajectory (idle peers are exactly the threads the filter
//! elides; wider domains mean wider reservation scans).
//!
//! Two sweeps added with the batched retirement pipeline:
//!
//! * `retire_throughput_*` — the retire fast path alone, batched
//!   (`retire_batch = RETIRE_BATCH_CAP`) vs unbatched (`retire_batch = 1`),
//!   isolating the amortized stats bump + threshold test.
//! * `epoch_advance_*` — `begin_op`/`end_op` cost under 1/4/8 threads all
//!   eligible to advance the epoch every operation (`epoch_freq = 1`): the
//!   per-thread clock tick replaces what used to be a contended shared
//!   `fetch_add`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use pop_core::{
    retire_node, Ebr, EpochPop, HasHeader, HazardEra, HazardEraPop, HazardPtr, HazardPtrPop,
    Header, Hyaline, Ibr, Smr, SmrConfig, RETIRE_BATCH_CAP,
};
use pop_ds::hml::HmList;
use pop_ds::ConcurrentMap;

#[repr(C)]
struct BenchNode {
    hdr: Header,
    v: u64,
}
unsafe impl HasHeader for BenchNode {}

fn alloc_node<S: Smr>(smr: &S, tid: usize, v: u64) -> *mut BenchNode {
    smr.note_alloc(tid, core::mem::size_of::<BenchNode>());
    Box::into_raw(Box::new(BenchNode {
        hdr: Header::new(smr.current_era(), core::mem::size_of::<BenchNode>()),
        v,
    }))
}

/// Cost of one reclamation pass (retire a small batch, then `flush`) with
/// `threads - 1` registered-but-idle peers. Idle peers stress exactly what
/// this iteration of the codebase optimized: their stat shards stay cold,
/// ping filtering skips signalling them, and the pass reuses scratch
/// buffers instead of reallocating.
fn reclaim_pass_cost<S: Smr>(c: &mut Criterion, threads: usize) {
    const BATCH: u64 = 64;
    // Threshold far above BATCH: the pass runs only inside `flush`.
    let smr = S::new(SmrConfig::for_threads(threads).with_reclaim_freq(1 << 20));
    let reg = smr.register(0);
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(Barrier::new(threads));
    let mut peers = Vec::new();
    for t in 1..threads {
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        let ready = Arc::clone(&ready);
        peers.push(std::thread::spawn(move || {
            let peer_reg = smr.register(t);
            ready.wait();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            drop(peer_reg);
        }));
    }
    if threads > 1 {
        ready.wait();
    }
    let mut g = c.benchmark_group(format!("reclaim_pass_{}", S::NAME));
    g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
        b.iter(|| {
            for i in 0..BATCH {
                let p = alloc_node(&*smr, 0, i);
                // SAFETY: never shared; retired exactly once.
                unsafe { retire_node(&*smr, 0, p) };
            }
            smr.flush(0);
        })
    });
    g.finish();
    stop.store(true, Ordering::Release);
    for p in peers {
        p.join().unwrap();
    }
    drop(reg);
}

fn pass_cost_sweep(c: &mut Criterion) {
    for &threads in &[1usize, 4, 8] {
        reclaim_pass_cost::<Ebr>(c, threads);
        reclaim_pass_cost::<HazardPtr>(c, threads);
        reclaim_pass_cost::<HazardEra>(c, threads);
        reclaim_pass_cost::<HazardPtrPop>(c, threads);
        reclaim_pass_cost::<HazardEraPop>(c, threads);
        reclaim_pass_cost::<EpochPop>(c, threads);
    }
}

fn reclaim_cycle<S: Smr>(c: &mut Criterion) {
    let smr = S::new(SmrConfig::for_threads(1).with_reclaim_freq(256));
    let list = HmList::new(Arc::clone(&smr));
    let reg = smr.register(0);
    for k in 0..512u64 {
        list.insert(0, k * 2, k);
    }
    let mut i = 0u64;
    c.bench_with_input(
        BenchmarkId::new("insert_delete_pair", S::NAME),
        &(),
        |b, _| {
            b.iter(|| {
                let k = (i % 512) * 2 + 1;
                list.insert(0, k, i);
                list.remove(0, k);
                i += 1;
            })
        },
    );
    drop(reg);
}

/// Retire fast-path throughput: retire 256 pre-counted nodes per
/// iteration (the quiescent single thread lets the threshold pass drain
/// them), comparing the sealed-batch pipeline against `retire_batch = 1`.
fn retire_throughput<S: Smr>(c: &mut Criterion) {
    const NODES: u64 = 256;
    let mut g = c.benchmark_group(format!("retire_throughput_{}", S::NAME));
    for (label, batch) in [("batched", RETIRE_BATCH_CAP), ("batch1", 1)] {
        let smr = S::new(
            SmrConfig::for_threads(1)
                .with_reclaim_freq(NODES as usize)
                .with_retire_batch(batch),
        );
        let reg = smr.register(0);
        g.bench_with_input(BenchmarkId::from_parameter(label), &batch, |b, _| {
            b.iter(|| {
                for i in 0..NODES {
                    let p = alloc_node(&*smr, 0, i);
                    // SAFETY: never shared; retired exactly once.
                    unsafe { retire_node(&*smr, 0, p) };
                }
            })
        });
        smr.flush(0);
        drop(reg);
    }
    g.finish();
}

fn retire_throughput_sweep(c: &mut Criterion) {
    retire_throughput::<Ebr>(c);
    retire_throughput::<HazardPtr>(c);
    retire_throughput::<HazardPtrPop>(c);
    retire_throughput::<Hyaline>(c);
}

/// Epoch-advance contention: `threads - 1` peers hammer `begin_op`/`end_op`
/// with `epoch_freq = 1` (every op ticks a clock) while the measured thread
/// does the same. Before the per-thread clocks this was a shared
/// `fetch_add` from every thread on every op.
fn epoch_advance_contention<S: Smr>(c: &mut Criterion, threads: usize) {
    let smr = S::new(SmrConfig::for_threads(threads).with_epoch_freq(1));
    let reg = smr.register(0);
    let stop = Arc::new(AtomicBool::new(false));
    let ready = Arc::new(Barrier::new(threads));
    let mut peers = Vec::new();
    for t in 1..threads {
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        let ready = Arc::clone(&ready);
        peers.push(std::thread::spawn(move || {
            let peer_reg = smr.register(t);
            ready.wait();
            while !stop.load(Ordering::Acquire) {
                smr.begin_op(t);
                smr.end_op(t);
            }
            drop(peer_reg);
        }));
    }
    if threads > 1 {
        ready.wait();
    }
    let mut g = c.benchmark_group(format!("epoch_advance_{}", S::NAME));
    g.bench_with_input(BenchmarkId::from_parameter(threads), &threads, |b, _| {
        b.iter(|| {
            smr.begin_op(0);
            smr.end_op(0);
        })
    });
    g.finish();
    stop.store(true, Ordering::Release);
    for p in peers {
        p.join().unwrap();
    }
    drop(reg);
}

fn epoch_advance_sweep(c: &mut Criterion) {
    for &threads in &[1usize, 4, 8] {
        epoch_advance_contention::<Ebr>(c, threads);
        epoch_advance_contention::<Ibr>(c, threads);
        epoch_advance_contention::<EpochPop>(c, threads);
    }
}

fn benches(c: &mut Criterion) {
    reclaim_cycle::<Ebr>(c);
    reclaim_cycle::<Ibr>(c);
    reclaim_cycle::<HazardPtr>(c);
    reclaim_cycle::<HazardEra>(c);
    reclaim_cycle::<HazardPtrPop>(c);
    reclaim_cycle::<HazardEraPop>(c);
    reclaim_cycle::<EpochPop>(c);
    reclaim_cycle::<Hyaline>(c);
}

criterion_group!(
    group,
    benches,
    pass_cost_sweep,
    retire_throughput_sweep,
    epoch_advance_sweep
);
criterion_main!(group);
