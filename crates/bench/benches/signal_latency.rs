//! Ping round-trip latency — the paper's §4.1.2 timeliness discussion.
//!
//! Measures a full publish-on-ping reclamation handshake
//! (`collectPublishedCounters → pingAllToPublish → waitForAllPublished`)
//! as a function of the number of registered peer threads, including the
//! oversubscribed case (peers > cores), which the paper calls out as
//! POP's worst case: there the post-spin futex park decides the latency.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use pop_core::{HazardPtrPop, PublishMode, Smr, SmrConfig};

fn ping_roundtrip(c: &mut Criterion) {
    let ncpu = pop_runtime::affinity::num_cpus();
    for peers in [0usize, 1, ncpu, ncpu * 2] {
        let smr = HazardPtrPop::new(
            SmrConfig::for_threads(peers + 1).with_publish_mode(PublishMode::Futex),
        );
        let stop = Arc::new(AtomicBool::new(false));
        let mut workers = Vec::new();
        let (tx, rx) = std::sync::mpsc::channel();
        for tid in 1..=peers {
            let smr = Arc::clone(&smr);
            let stop = Arc::clone(&stop);
            let tx = tx.clone();
            workers.push(std::thread::spawn(move || {
                let reg = smr.register(tid);
                // Busy in-op peers: never filtered as quiescent, so every
                // pass pings each of them and waits on its handler, which
                // interrupts this spin.
                smr.begin_op(tid);
                tx.send(()).unwrap();
                while !stop.load(Ordering::Relaxed) {
                    std::hint::spin_loop();
                }
                smr.end_op(tid);
                drop(reg);
            }));
        }
        for _ in 0..peers {
            rx.recv().unwrap();
        }
        let reg = smr.register(0);
        c.bench_with_input(
            BenchmarkId::new("ping_all_and_wait", peers),
            &peers,
            |b, _| {
                // flush() on an empty retire list runs the full ping
                // handshake and an (empty) scan.
                b.iter(|| smr.flush(0));
            },
        );
        drop(reg);
        stop.store(true, Ordering::Release);
        for w in workers {
            w.join().unwrap();
        }
    }
}

criterion_group!(benches, ping_roundtrip);
criterion_main!(benches);
