//! CI bench smoke: a reduced-iteration, machine-readable slice of the
//! perf surface this repo's PRs optimize, so the trajectory is tracked in
//! one JSON artifact instead of scraped bench logs.
//!
//! Measures:
//!
//! * **Publish wait wake latency**: a full `ping → handler publish → wake`
//!   handshake against one busy in-op peer, futex-parked.
//! * **Publish-mode pass cost** (PR 8): a full reclamation pass against
//!   4 / 16 / 64 busy in-op peers under the signal fan-out (futex waits)
//!   vs the single-syscall membarrier publish path, plus the
//!   membarrier-vs-futex speedup per peer count.
//! * **Idle-domain pass cost** (PR 5): the amortized cost of a
//!   retire-triggered pass on a domain whose sweeps free nothing (one
//!   stalled reader pins everything), with the adaptive controller's
//!   epoch-cadence decay on vs off.
//! * **Pressure ladder** (bounded-garbage PR): escalation trips, blocks
//!   quarantined and pool blocks trimmed under a stalled reader with
//!   tight watermarks, plus the one-flush recovery latency once the
//!   stall clears — and a parity check that the default watermarks stay
//!   silent (gauge enabled, zero trips) under quiescent churn.
//!
//! * **Matrix smoke** (PR 9): cells of the evaluation matrix — the two
//!   new structures (skip list, NM tree) under HazardPtrPOP and EBR, plus
//!   a VBR cell — run through the same [`pop_bench::matrix`] path the
//!   `matrix` binary uses, reporting throughput and max retire length per
//!   cell.
//!
//! * **Slab settlement** (PR 10): the whole-slab settle path (owned-arena
//!   bump fills whose retire blocks pass one range test and free wholesale
//!   into their slab) vs the per-node sweep over a Box-backed
//!   address-random fill, plus the `slab_frees_whole` count.
//! * **Slab recycling** (PR 19): ns per allocation when refilling slabs the
//!   empty pool kept warm vs slabs that overflowed it and came back cold
//!   (pages `madvise`d away, so every page faults again), plus the bytes
//!   that overflow handed to the OS.
//! * **Node layout** (PR 25): `size_of` of the header, the retire record and
//!   every structure's node type, so layout drift (a node moving to another
//!   slab class) shows in the trajectory.
//!
//! Usage: `bench_smoke [--out PATH] [--iters N]` (defaults:
//! `BENCH_smoke.json`, 60 iterations per measurement). The file name is
//! stable across PRs so artifacts line up into a trajectory; the PR that
//! last changed what is measured is the `"pr"` field inside ([`PR`]).

use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use pop_bench::matrix::{MatrixCell, MatrixMix};
use pop_bench::{DsId, SchemeId};
use pop_core::config::PublishMode;
use pop_core::testing::SweepBench;
use pop_core::{retire_node, Ebr, HasHeader, HazardPtrPop, Header, Smr, SmrConfig};

/// The PR that last changed this binary's measurements or the code under
/// them; written into the artifact so its *name* never has to change.
const PR: u32 = 28;

#[repr(C)]
struct Node {
    hdr: Header,
    v: u64,
}
unsafe impl HasHeader for Node {}

/// Amortized cost (ns) of one retire-*triggered* reclamation pass on an
/// idle (fully pinned) EBR domain, `(pass_ns, decay_steps)`. A peer
/// parks in-op so every sweep is barren; with `retire_batch = 1` the
/// trigger points are deterministic (every `reclaim_freq`-th retire), so
/// exactly those retire calls are timed — each carries one push + seal
/// (identical in both configurations) plus the triggered pass, which the
/// decayed controller thins away.
fn idle_pass_ns(adaptive: bool, triggers: u32) -> (f64, u64) {
    const RECLAIM_FREQ: usize = 256;
    // A wide domain: the per-pass reservation scan walks 64 thread slots,
    // the cost pool the decay exists to shrink.
    let smr = Ebr::new(
        SmrConfig::for_tests(64)
            .with_reclaim_freq(RECLAIM_FREQ)
            .with_retire_batch(1)
            .with_adaptive(adaptive),
    );
    let reg0 = smr.register(0);
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let pinner = std::thread::spawn({
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        move || {
            let reg1 = smr.register(1);
            smr.begin_op(1); // pins the epoch: every sweep is barren
            tx.send(()).unwrap();
            while !stop.load(Ordering::Acquire) {
                std::thread::sleep(Duration::from_millis(1));
            }
            smr.end_op(1);
            drop(reg1);
        }
    });
    rx.recv().unwrap();
    let mut timed_ns = 0u128;
    let mut timed = 0u32;
    for i in 1..=(RECLAIM_FREQ as u64) * triggers as u64 {
        smr.note_alloc(0, core::mem::size_of::<Node>());
        let p = Box::into_raw(Box::new(Node {
            hdr: Header::new(0, core::mem::size_of::<Node>()),
            v: i,
        }));
        if i.is_multiple_of(RECLAIM_FREQ as u64) {
            let t0 = Instant::now();
            // SAFETY: never shared; retired exactly once.
            unsafe { retire_node(&*smr, 0, p) };
            timed_ns += t0.elapsed().as_nanos();
            timed += 1;
        } else {
            // SAFETY: as above.
            unsafe { retire_node(&*smr, 0, p) };
        }
    }
    let decay_steps = smr.stats().snapshot().epoch_decay_steps;
    stop.store(true, Ordering::Release);
    pinner.join().unwrap();
    smr.flush(0);
    assert_eq!(smr.stats().snapshot().unreclaimed_nodes(), 0);
    drop(reg0);
    (timed_ns as f64 / timed as f64, decay_steps)
}

/// Pressure-ladder smoke (bounded-garbage PR): a stalled reader pins a
/// backlog under tight watermarks on an EBR domain. Returns the trip
/// counts `(soft, hard, emergency)`, the blocks quarantined and pool
/// blocks trimmed, and the recovery latency — wall ns for the single
/// flush that drains everything once the stall clears.
fn pressure_ladder_smoke() -> (u64, u64, u64, u64, u64, f64) {
    let smr = Ebr::new(
        SmrConfig::for_tests(2)
            .with_reclaim_freq(16)
            .with_retire_batch(1)
            .with_pressure_watermarks(64, 96, 128)
            .with_free_pool_cap(4),
    );
    let reg0 = smr.register(0);
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let pinner = std::thread::spawn({
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        move || {
            let reg1 = smr.register(1);
            smr.begin_op(1); // pins the epoch and stalls
            tx.send(()).unwrap();
            while !stop.load(Ordering::Acquire) {
                std::hint::spin_loop();
            }
            smr.end_op(1);
            drop(reg1);
        }
    });
    rx.recv().unwrap();
    for i in 0..1_000u64 {
        smr.note_alloc(0, core::mem::size_of::<Node>());
        let p = Box::into_raw(Box::new(Node {
            hdr: Header::new(0, core::mem::size_of::<Node>()),
            v: i,
        }));
        // SAFETY: never shared; retired exactly once.
        unsafe { retire_node(&*smr, 0, p) };
    }
    smr.flush(0);
    let s = smr.stats().snapshot();
    stop.store(true, Ordering::Release);
    pinner.join().unwrap();
    let t0 = Instant::now();
    smr.flush(0);
    let recovery_ns = t0.elapsed().as_nanos() as f64;
    assert_eq!(
        smr.stats().snapshot().unreclaimed_nodes(),
        0,
        "pressure ladder must drain within one pass of the stall clearing"
    );
    drop(reg0);
    (
        s.pressure_soft_trips,
        s.pressure_hard_trips,
        s.pressure_emergency_trips,
        s.blocks_quarantined,
        s.pool_blocks_trimmed,
        recovery_ns,
    )
}

/// Mean ns per full ping→publish→wake handshake against one busy peer.
fn wait_wake_ns(iters: u32) -> f64 {
    let smr = HazardPtrPop::new(
        SmrConfig::for_tests(2)
            .with_reclaim_freq(1 << 20)
            .with_publish_spin(8)
            .with_publish_mode(PublishMode::Futex),
    );
    let reg0 = smr.register(0);
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let peer = std::thread::spawn({
        let smr = Arc::clone(&smr);
        let stop = Arc::clone(&stop);
        move || {
            let reg1 = smr.register(1);
            // Busy in-op peer holding a reservation: every pass pings it
            // and waits for its handler.
            let dummy = Box::into_raw(Box::new(Node {
                hdr: Header::new(0, core::mem::size_of::<Node>()),
                v: 0,
            }));
            let src = AtomicPtr::new(dummy);
            smr.begin_op(1);
            let _ = smr.protect(1, 0, &src).unwrap();
            tx.send(()).unwrap();
            while !stop.load(Ordering::Relaxed) {
                std::hint::spin_loop();
            }
            smr.end_op(1);
            drop(reg1);
            // SAFETY: never retired; owned by this closure.
            unsafe { drop(Box::from_raw(dummy)) };
        }
    });
    rx.recv().unwrap();
    // One retired node so passes do real (tiny) work; warmup first.
    for _ in 0..3 {
        smr.flush(0);
    }
    let t0 = Instant::now();
    for i in 0..iters as u64 {
        smr.note_alloc(0, core::mem::size_of::<Node>());
        let p = Box::into_raw(Box::new(Node {
            hdr: Header::new(0, core::mem::size_of::<Node>()),
            v: i,
        }));
        // SAFETY: never shared; retired exactly once.
        unsafe { retire_node(&*smr, 0, p) };
        smr.flush(0);
    }
    let total = t0.elapsed();
    stop.store(true, Ordering::Release);
    peer.join().unwrap();
    drop(reg0);
    total.as_nanos() as f64 / iters as f64
}

/// Mean ns per full reclamation pass against `peers` busy in-op readers,
/// under one publish mode (PR 8). The signal fan-out pays one `tgkill` +
/// handler publish + wait per peer; membarrier replaces the whole fan-out
/// with a single `membarrier(2)` heavy barrier — the gap is the tentpole
/// measurement, and it widens with the peer count (64 peers oversubscribes
/// typical CI hosts, the paper's §4.1.2 worst case).
fn publish_pass_ns(mode: PublishMode, peers: usize, iters: u32) -> f64 {
    let smr = HazardPtrPop::new(
        SmrConfig::for_tests(peers + 1)
            .with_reclaim_freq(1 << 20)
            .with_publish_spin(8)
            .with_publish_mode(mode),
    );
    let reg0 = smr.register(0);
    let stop = Arc::new(AtomicBool::new(false));
    let (tx, rx) = std::sync::mpsc::channel();
    let handles: Vec<_> = (1..=peers)
        .map(|tid| {
            let smr = Arc::clone(&smr);
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            std::thread::spawn(move || {
                let reg = smr.register(tid);
                let dummy = Box::into_raw(Box::new(Node {
                    hdr: Header::new(0, core::mem::size_of::<Node>()),
                    v: 0,
                }));
                let src = AtomicPtr::new(dummy);
                smr.begin_op(tid);
                let _ = smr.protect(tid, 0, &src).unwrap();
                tx.send(()).unwrap();
                // Busy in-op reader; the yield keeps oversubscribed runs
                // progressing (everyone must get scheduled for handlers —
                // or, under membarrier, for the IPI — to land).
                while !stop.load(Ordering::Relaxed) {
                    std::thread::yield_now();
                }
                smr.end_op(tid);
                drop(reg);
                // SAFETY: never retired; owned by this closure.
                unsafe { drop(Box::from_raw(dummy)) };
            })
        })
        .collect();
    for _ in 0..peers {
        rx.recv().unwrap();
    }
    for _ in 0..3 {
        smr.flush(0);
    }
    let t0 = Instant::now();
    for i in 0..iters as u64 {
        smr.note_alloc(0, core::mem::size_of::<Node>());
        let p = Box::into_raw(Box::new(Node {
            hdr: Header::new(0, core::mem::size_of::<Node>()),
            v: i,
        }));
        // SAFETY: never shared; retired exactly once.
        unsafe { retire_node(&*smr, 0, p) };
        smr.flush(0);
    }
    let total = t0.elapsed();
    stop.store(true, Ordering::Release);
    for h in handles {
        h.join().unwrap();
    }
    drop(reg0);
    total.as_nanos() as f64 / iters as f64
}

/// PR 9 matrix smoke: the two new structures under one POP scheme and one
/// epoch baseline — plus scheme #12 (VBR, PR 10) on the list it exercises
/// hardest — driven through the same `MatrixCell::run` path as the
/// `matrix` binary. Returns `(cell_id, throughput_mops, max_retire_len)`
/// rows.
fn matrix_smoke() -> Vec<(String, f64, u64)> {
    let cells = [
        (SchemeId::HazardPtrPop, DsId::Skl),
        (SchemeId::HazardPtrPop, DsId::Nmt),
        (SchemeId::Ebr, DsId::Skl),
        (SchemeId::Ebr, DsId::Nmt),
        (SchemeId::Vbr, DsId::Hml),
    ];
    cells
        .into_iter()
        .map(|(scheme, ds)| {
            let cell = MatrixCell {
                scheme,
                ds,
                threads: 2,
                mix: MatrixMix::UpdateHeavy,
                skew: 0.0,
                key_range: 1024,
                duration_ms: 40,
                reclaim_freq: 512,
            };
            let rec = cell.run();
            assert!(rec.ops > 0, "{} executed no ops", cell.id());
            (cell.id(), rec.throughput_mops, rec.max_retire_len)
        })
        .collect()
}

/// PR 10: whole-slab settlement vs the per-node sweep, at the same node and
/// reservation counts. The baseline fills `Box`-backed (address-random
/// after heap churn) with the reservations spread across the list, so
/// nearly every block pays the per-node window test; the slab side
/// bump-fills the owned arenas with the reservations drawn from the tail,
/// so the reserved window misses all but the last block(s) and the rest
/// settle whole — one range test, then a wholesale free into their slab.
/// Returns `(slab_ns_per_node, per_node_ns_per_node, slab_frees_whole)`.
fn slab_settlement(iters: u32) -> (f64, f64, u64) {
    const NODES: usize = 4096;
    const RSIZE: usize = 64;
    // The two sides run INTERLEAVED round-robin (as the PR-5 comparisons
    // do) so host-load drift across the measurement hits both equally
    // instead of biasing whichever side ran later, and each side reports
    // its fastest iteration: scheduling noise is strictly additive, so
    // min-of-iters is the algorithmic cost, not the host's mood.
    let mut box_bench = SweepBench::new();
    let mut slab_bench = SweepBench::new();
    let mut box_ns = u128::MAX;
    let mut slab_ns = u128::MAX;
    for i in 0..iters + 2 {
        let ptrs = box_bench.fill(NODES);
        let mut reserved: Vec<u64> = ptrs
            .iter()
            .copied()
            .step_by(NODES / RSIZE)
            .take(RSIZE)
            .collect();
        reserved.sort_unstable();
        let t0 = Instant::now();
        let freed = box_bench.sweep(&reserved);
        let dt = t0.elapsed();
        assert_eq!(freed, NODES - RSIZE);
        box_bench.drain();
        if i >= 2 {
            box_ns = box_ns.min(dt.as_nanos());
        }

        let ptrs = slab_bench.fill_slab(NODES);
        let mut reserved: Vec<u64> = ptrs[NODES - RSIZE..].to_vec();
        reserved.sort_unstable();
        let t0 = Instant::now();
        let freed = slab_bench.sweep(&reserved);
        let dt = t0.elapsed();
        assert_eq!(freed, NODES - RSIZE);
        slab_bench.drain();
        if i >= 2 {
            slab_ns = slab_ns.min(dt.as_nanos());
        }
    }
    let frees_whole = slab_bench.slab_frees_whole();
    assert!(frees_whole > 0, "slab fills must settle blocks whole");
    (
        slab_ns as f64 / NODES as f64,
        box_ns as f64 / NODES as f64,
        frees_whole,
    )
}

/// PR 19: what the empty pool's warm stack saves per allocation. Each
/// iteration drains `WARM_SLABS + COLD_SLABS` full slabs at once — the first
/// `WARM_SLABS` to empty are pooled as they are, the rest overflow the cache
/// and release their pages — and then refills them: the pool hands the warm
/// ones back first, so the refill's first `WARM_SLABS` slabs are bump
/// allocation and nothing else, and its last `COLD_SLABS` pay a page fault
/// every 64 nodes on top. Both phases run in every iteration and each
/// reports its fastest, as the other comparisons here do. Returns
/// `(warm_ns_per_alloc, cold_ns_per_alloc, slab_released_bytes)`, the last
/// being the process-wide gauge after the final drain.
fn slab_recycle(iters: u32) -> (f64, f64, u64) {
    use pop_core::slab::{alloc_value, free_value, SLAB_BYTES, WARM_SLABS};

    /// The 64-byte class: where the tree and lazy-list nodes land. Exactly
    /// 64 bytes, so `PER_SLAB` is the class's slot count.
    #[repr(C)]
    struct SlabNode {
        hdr: Header,
        payload: [u64; 7],
    }
    unsafe impl HasHeader for SlabNode {}

    const COLD_SLABS: usize = 16;
    /// Slots of that class in one slab (its first page is the header).
    const PER_SLAB: usize = (SLAB_BYTES - 4096) / core::mem::size_of::<SlabNode>();

    // Allocates `slabs` slabs' worth of nodes; ns per allocation.
    let fill = |slabs: usize, nodes: &mut Vec<*mut SlabNode>| {
        let n = slabs * PER_SLAB;
        let t0 = Instant::now();
        for i in 0..n as u64 {
            nodes.push(alloc_value(
                SlabNode {
                    hdr: Header::new(0, core::mem::size_of::<SlabNode>()),
                    payload: [i; 7],
                },
                true,
            ));
        }
        t0.elapsed().as_nanos() as f64 / n as f64
    };
    let slab_of = |p: *mut SlabNode| p as usize & !(SLAB_BYTES - 1);

    // Start on a slab boundary so the two phases split where the pool does.
    pop_core::slab::release_thread_slabs();
    let released_before = pop_core::slab::released_bytes();
    let mut nodes = Vec::with_capacity((WARM_SLABS + COLD_SLABS) * PER_SLAB);
    let (mut warm_ns, mut cold_ns) = (f64::MAX, f64::MAX);
    for i in 0..iters + 2 {
        let warm = fill(WARM_SLABS, &mut nodes);
        let cold = fill(COLD_SLABS, &mut nodes);
        // The first fill takes whatever earlier benches left pooled (or
        // maps); from the second on the pool is what this loop left there.
        if i >= 2 {
            warm_ns = warm_ns.min(warm);
            cold_ns = cold_ns.min(cold);
        }
        assert_eq!(slab_of(nodes[PER_SLAB - 1]), slab_of(nodes[0]));
        assert_ne!(slab_of(nodes[PER_SLAB]), slab_of(nodes[0]));
        pop_core::slab::release_thread_slabs(); // seal, so the drain settles
        for p in nodes.drain(..) {
            // SAFETY: allocated above, never shared, freed once.
            unsafe { free_value(p) };
        }
    }
    let released = pop_core::slab::released_bytes();
    assert!(
        released > released_before,
        "slabs past the warm cache must hand their pages back to the OS"
    );
    assert!(
        warm_ns < cold_ns,
        "a warm slab must refill faster than a released one \
         ({warm_ns:.2} vs {cold_ns:.2} ns/alloc)"
    );
    (warm_ns, cold_ns, released)
}

/// `size_of` in bytes of the one-word header, the retire record and each
/// structure's node type (the hash map reuses the list's node).
fn layout_json() -> String {
    use core::mem::size_of;
    use pop_ds::{ab_tree, ext_bst, hml, lazy_list, ms_queue, nm_tree, skip_list, treiber_stack};
    let rows = [
        ("header", size_of::<Header>()),
        ("retired", size_of::<pop_core::Retired>()),
        ("hml_node", size_of::<hml::Node>()),
        ("lazy_list_node", size_of::<lazy_list::Node>()),
        ("ext_bst_node", size_of::<ext_bst::BstNode>()),
        ("ab_tree_node", size_of::<ab_tree::AbNode>()),
        ("skip_list_node", size_of::<skip_list::SkipNode>()),
        ("nm_tree_node", size_of::<nm_tree::NmNode>()),
        ("ms_queue_node", size_of::<ms_queue::QueueNode>()),
        ("treiber_stack_node", size_of::<treiber_stack::StackNode>()),
    ];
    let fields: Vec<String> = rows.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", fields.join(", "))
}

fn main() {
    let mut out_path = String::from("BENCH_smoke.json");
    let mut iters: u32 = 60;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = args.next().expect("--out needs a path"),
            "--iters" => {
                iters = args
                    .next()
                    .expect("--iters needs a count")
                    .parse()
                    .expect("--iters must be a number")
            }
            other => {
                eprintln!("usage: bench_smoke [--out PATH] [--iters N] (got {other:?})");
                std::process::exit(2);
            }
        }
    }

    let wake_futex = wait_wake_ns(iters);
    println!("wait_wake: futex {wake_futex:.0} ns");

    // PR 8: full-pass publish cost per mode at growing peer counts. The
    // acceptance bar is membarrier ≥ 2× cheaper than the signal fan-out at
    // 16+ registered threads; the gap widens with peers because the signal
    // path pays one tgkill + handler publish + wait per peer while
    // membarrier pays one syscall regardless.
    let membarrier_available = pop_runtime::membarrier::is_available();
    let mut publish_rows = String::new();
    let pass_iters = (iters / 4).max(8);
    for (i, &peers) in [4usize, 16, 64].iter().enumerate() {
        let futex_ns = publish_pass_ns(PublishMode::Futex, peers, pass_iters);
        let mb_ns = if membarrier_available {
            publish_pass_ns(PublishMode::Membarrier, peers, pass_iters)
        } else {
            // Fallback host: the membarrier config resolves to fan-out, so
            // report that cost and a 1.0x ratio rather than fake a win.
            futex_ns
        };
        let speedup = futex_ns / mb_ns;
        println!(
            "publish_mode peers={peers:>2}: futex {futex_ns:>9.0} ns/pass | \
             membarrier {mb_ns:>9.0} ns/pass ({speedup:.2}x vs futex)"
        );
        if i > 0 {
            publish_rows.push(',');
        }
        write!(
            publish_rows,
            "\n    {{\"peers\": {peers}, \
             \"futex_ns_per_pass\": {futex_ns:.0}, \
             \"membarrier_ns_per_pass\": {mb_ns:.0}, \
             \"membarrier_speedup_vs_futex\": {speedup:.3}}}"
        )
        .unwrap();
    }

    // PR 5: idle-domain pass cost with the epoch-cadence decay on vs off.
    // The acceptance bar is a ≥ 2× reduction; the thinned passes usually
    // land far past it.
    let triggers = iters.max(48);
    let (idle_static, _) = idle_pass_ns(false, triggers);
    let (idle_adaptive, decay_steps) = idle_pass_ns(true, triggers);
    let idle_speedup = idle_static / idle_adaptive;
    println!(
        "idle_pass: static {idle_static:.0} ns/trigger vs adaptive \
         {idle_adaptive:.0} ns/trigger ({idle_speedup:.2}x, \
         {decay_steps} decay steps)"
    );

    // Bounded-garbage PR: the escalation ladder engaged by a stalled
    // reader under tight watermarks, and the one-flush recovery cost.
    let (p_soft, p_hard, p_emerg, p_quar, p_trim, p_recovery_ns) = pressure_ladder_smoke();
    println!(
        "pressure_ladder: trips soft {p_soft} / hard {p_hard} / emergency \
         {p_emerg}, {p_quar} blocks quarantined, {p_trim} pool blocks \
         trimmed, recovery {p_recovery_ns:.0} ns"
    );
    // Enabled-untripped parity: under the paper-default watermarks the
    // gauge must stay silent through quiescent churn, so its presence
    // costs the measurements above nothing.
    let untripped = {
        let smr = Ebr::new(SmrConfig::for_tests(2));
        let reg0 = smr.register(0);
        for i in 0..2_048u64 {
            smr.note_alloc(0, core::mem::size_of::<Node>());
            let p = Box::into_raw(Box::new(Node {
                hdr: Header::new(0, core::mem::size_of::<Node>()),
                v: i,
            }));
            // SAFETY: never shared; retired exactly once.
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        let s = smr.stats().snapshot();
        drop(reg0);
        s.pressure_soft_trips == 0
            && s.pressure_hard_trips == 0
            && s.pressure_emergency_trips == 0
            && s.blocks_quarantined == 0
    };
    assert!(
        untripped,
        "default watermarks must not trip under quiescent churn"
    );
    println!("pressure_untripped_default: {untripped}");

    // PR 10: whole-slab settlement vs the per-node sweep. Acceptance
    // bar: the settle path ≥ 2× faster.
    let (slab_ns, per_node_ns, slab_whole) = slab_settlement(iters);
    let slab_speedup = per_node_ns / slab_ns;
    println!(
        "slab_settlement: whole-slab {slab_ns:.2} ns/node vs per-node \
         {per_node_ns:.2} ns/node ({slab_speedup:.2}x), {slab_whole} blocks \
         settled whole"
    );

    // PR 19: refilling warm slabs vs released ones, plus the OS-release
    // gauge after the overflowing drains. Acceptance bar: warm < cold
    // (asserted inside) and `slab_released_bytes > 0`.
    let (recycle_warm_ns, recycle_cold_ns, slab_released) = slab_recycle(iters);
    println!(
        "slab_recycle: warm {recycle_warm_ns:.2} vs cold {recycle_cold_ns:.2} \
         ns/alloc ({:.2}x), {slab_released} bytes released",
        recycle_cold_ns / recycle_warm_ns
    );

    // PR 9: the new matrix cells (skip list + NM tree) through the
    // evaluation-grid driver path.
    let matrix_rows = matrix_smoke();
    let mut matrix_json = String::new();
    for (i, (id, mops, retire)) in matrix_rows.iter().enumerate() {
        println!("matrix_smoke {id}: {mops:.3} Mops/s, max_retire {retire}");
        if i > 0 {
            matrix_json.push(',');
        }
        write!(
            matrix_json,
            "\n    {{\"cell\": \"{id}\", \"throughput_mops\": {mops:.4}, \
             \"max_retire_len\": {retire}}}"
        )
        .unwrap();
    }

    let layout = layout_json();
    println!("layout: {layout}");

    let json = format!(
        "{{\n  \"bench\": \"bench_smoke\",\n  \"pr\": {PR},\n  \"iters\": {iters},\n  \
         \"layout\": {layout},\n  \
         \"wait_wake_ns\": {{\"futex\": {wake_futex:.0}}},\n  \
         \"membarrier_available\": {membarrier_available},\n  \
         \"publish_mode\": [{publish_rows}\n  ],\n  \
         \"idle_pass\": {{\"static_ns_per_trigger\": {idle_static:.0}, \
         \"adaptive_ns_per_trigger\": {idle_adaptive:.0}, \
         \"decay_speedup\": {idle_speedup:.3}, \
         \"decay_steps\": {decay_steps}}},\n  \
         \"pressure\": {{\"soft_trips\": {p_soft}, \"hard_trips\": {p_hard}, \
         \"emergency_trips\": {p_emerg}, \"blocks_quarantined\": {p_quar}, \
         \"pool_blocks_trimmed\": {p_trim}, \"recovery_ns\": {p_recovery_ns:.0}, \
         \"untripped_default\": {untripped}}},\n  \
         \"slab_vbr\": {{\"slab_settle_ns_per_node\": {slab_ns:.2}, \
         \"per_node_ns_per_node\": {per_node_ns:.2}, \
         \"settle_speedup\": {slab_speedup:.3}, \
         \"slab_frees_whole\": {slab_whole}, \
         \"slab_recycle\": {{\"warm_ns_per_alloc\": {recycle_warm_ns:.2}, \
         \"cold_ns_per_alloc\": {recycle_cold_ns:.2}}}, \
         \"slab_released_bytes\": {slab_released}}},\n  \
         \"matrix_smoke\": [{matrix_json}\n  ]\n}}\n"
    );
    std::fs::write(&out_path, &json).expect("write bench json");
    println!("wrote {out_path}");
}
