//! One trial: a fresh domain, a fresh structure, prefill to half the key
//! range, a measured slice on two client threads, then the end-state check.

use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use crate::adapter::{
    dispatch, domain_config, stalled_reader, ConcurrentMap, Probe, Scheme, StatsSnapshot, TrialFn,
};
use crate::gen::{Op, OpKind, OpStream, Oracle, Rng, CLIENTS};
use crate::trace::{self, Kind, ThreadLog, KINDS, OP_SAMPLE_EVERY};
use crate::workload::Workload;

/// Operations between two looks at the clock and the garbage gauge.
const POLL_EVERY: u64 = 256;
/// Time between two of client 0's looks at the process's resident set.
const RSS_EVERY: Duration = Duration::from_millis(5);
/// Length of the windows a slice's throughput is read in.
pub const WINDOW: Duration = Duration::from_millis(50);

pub struct TrialSpec {
    pub workload: &'static Workload,
    pub scheme: Scheme,
    pub seed: u64,
    pub slice: Duration,
    pub traced: bool,
}

/// What one client's tracing recorded during the slice.
pub struct ClientTrace {
    pub calls: [u64; KINDS],
    pub log: ThreadLog,
    /// What an empty span read on this client's thread just before the slice.
    pub empty_span_ticks: u32,
}

pub struct TrialOut {
    /// Operations completed in the slice, summed over the clients.
    pub ops: u64,
    /// Sum over the clients of their own `ops / slice wall time`, in Mops/s.
    pub mops: f64,
    /// Mops/s in each full [`WINDOW`] of the slice, summed over the clients
    /// (a slice shorter than one window has just `mops`).
    pub window_mops: Vec<f64>,
    /// Time the clients spent in their slices, summed, in ns.
    pub worker_ns: f64,
    /// `S::new` + structure + thread spawn/register + prefill, up to the
    /// start barrier.
    pub setup_s: f64,
    /// Largest `unreclaimed_nodes()` any client saw, polled every
    /// [`POLL_EVERY`] operations.
    pub garbage_peak: u64,
    /// Largest resident set of the process that client 0 saw during the
    /// slice, polled every [`RSS_EVERY`], in MB.
    pub rss_peak_mb: f64,
    /// Answers checked (prefill, slice and end-state lookups).
    pub attempted: u64,
    /// Oracle mismatches + end-state mismatches + a broken counter invariant.
    pub failed: u64,
    /// Hash of both clients' operation streams and expected outcomes.
    pub digest: u64,
    /// The domain's counters after the clients unregistered.
    pub stats: StatsSnapshot,
    /// Per-client traces; empty for an untraced trial.
    pub traces: Vec<ClientTrace>,
}

struct ClientOut {
    ops: u64,
    /// Operations completed in each full window of the slice.
    window_ops: Vec<u64>,
    start: Instant,
    elapsed: Duration,
    garbage_peak: u64,
    rss_peak_kb: u64,
    oracle: Oracle,
    trace: Option<ClientTrace>,
}

/// The process's resident set in kB (0 where `/proc` does not say).
fn rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find_map(|l| l.strip_prefix("VmRSS:"))?;
            line.trim().trim_end_matches("kB").trim().parse().ok()
        })
        .unwrap_or(0)
}

struct Body<'a>(&'a TrialSpec);

pub fn run_trial(spec: &TrialSpec) -> TrialOut {
    dispatch(
        spec.scheme,
        spec.workload.structure,
        spec.traced,
        Body(spec),
    )
}

impl TrialFn for Body<'_> {
    type Out = TrialOut;

    fn run<S: Probe, M: ConcurrentMap<S>>(self, make_map: impl FnOnce(Arc<S>) -> M) -> TrialOut {
        let spec = self.0;
        let w = spec.workload;
        let setup_start = Instant::now();
        let smr = S::new(domain_config());
        let map = make_map(Arc::clone(&smr));
        let barrier = Barrier::new(CLIENTS);

        let outs: Vec<ClientOut> = std::thread::scope(|s| {
            let clients: Vec<_> = (0..CLIENTS)
                .map(|tid| {
                    let (smr, map, barrier) = (&smr, &map, &barrier);
                    s.spawn(move || client(spec, smr, map, barrier, tid))
                })
                .collect();
            clients
                .into_iter()
                .map(|c| c.join().expect("client thread panicked"))
                .collect()
        });

        // End state: the structure must hold exactly the union of the
        // clients' models.
        let mut end_mismatches = 0u64;
        {
            let reg = smr.register(0);
            for key in 0..w.key_range {
                let want = outs[key as usize % CLIENTS].oracle.holds(key);
                if map.get(reg.tid(), key) != want.then_some(key) {
                    end_mismatches += 1;
                }
            }
        }
        let stats = smr.stats().snapshot();
        // Not "zero unreclaimed": concurrent unregisters legitimately orphan
        // a few blocks.
        let counters_ok = stats.freed_nodes <= stats.retired_nodes
            && stats.retired_nodes <= stats.allocated_nodes;

        let active = &outs[..w.active_clients()];
        let mops: f64 = active
            .iter()
            .map(|o| o.ops as f64 / o.elapsed.as_secs_f64() / 1e6)
            .sum();
        let windows = active.iter().map(|o| o.window_ops.len()).min().unwrap_or(0);
        let mut window_mops: Vec<f64> = (0..windows)
            .map(|k| {
                active.iter().map(|o| o.window_ops[k]).sum::<u64>() as f64
                    / WINDOW.as_secs_f64()
                    / 1e6
            })
            .collect();
        if window_mops.is_empty() {
            window_mops.push(mops);
        }
        TrialOut {
            ops: active.iter().map(|o| o.ops).sum(),
            mops,
            window_mops,
            worker_ns: active.iter().map(|o| o.elapsed.as_nanos() as f64).sum(),
            setup_s: (outs[0].start - setup_start).as_secs_f64(),
            garbage_peak: outs.iter().map(|o| o.garbage_peak).max().unwrap_or(0),
            rss_peak_mb: outs[0].rss_peak_kb as f64 / 1024.0,
            attempted: outs.iter().map(|o| o.oracle.attempted).sum::<u64>() + w.key_range,
            failed: outs.iter().map(|o| o.oracle.mismatches).sum::<u64>()
                + end_mismatches
                + u64::from(!counters_ok),
            digest: outs
                .iter()
                .fold(0, |d, o| d.rotate_left(17) ^ o.oracle.digest),
            stats,
            traces: outs.into_iter().filter_map(|o| o.trace).collect(),
        }
    }
}

fn apply<S: Probe, M: ConcurrentMap<S>>(map: &M, tid: usize, op: Op) -> bool {
    match op.kind {
        OpKind::Contains => map.contains(tid, op.key),
        OpKind::Insert => map.insert(tid, op.key, op.key),
        OpKind::Remove => map.remove(tid, op.key),
    }
}

fn client<S: Probe, M: ConcurrentMap<S>>(
    spec: &TrialSpec,
    smr: &Arc<S>,
    map: &M,
    barrier: &Barrier,
    tid: usize,
) -> ClientOut {
    let w = spec.workload;
    let reg = smr.register(tid);
    let mut oracle = Oracle::new(tid, w.key_range);
    let stalled = tid >= w.active_clients();

    if !stalled {
        // Prefill this client's half of the range to half full, in random
        // order (the tree is not self-balancing).
        let own = w.key_range / CLIENTS as u64;
        let mut rng = Rng::new(spec.seed ^ (0xF1_11 + tid as u64));
        let mut held = 0;
        while held < own / 2 {
            let op = Op {
                kind: OpKind::Insert,
                key: rng.below(own) * CLIENTS as u64 + tid as u64,
            };
            if oracle.check(op, apply(map, tid, op)) == Some(true) {
                held += 1;
            }
        }
    }
    let mut empty_span_ticks = 0;
    if S::TRACED {
        trace::take(); // the prefill is not part of the trace
        trace::reserve();
        empty_span_ticks = trace::empty_span_ticks();
    }

    barrier.wait();
    let start = Instant::now();
    let (mut ops, mut garbage_peak) = (0u64, 0u64);
    let (mut rss_peak_kb, mut next_rss) = (0u64, Duration::ZERO);
    let (mut window_ops, mut window_start, mut next_window) = (Vec::new(), 0u64, WINDOW);
    if stalled {
        stalled_reader(&**smr, tid, start + spec.slice);
    } else {
        let mut stream = OpStream::new(spec.seed, tid, w.key_range, w.mix);
        loop {
            let op = stream.next_op();
            let answer = if S::TRACED && ops.is_multiple_of(OP_SAMPLE_EVERY) {
                let kind = match op.kind {
                    OpKind::Contains => Kind::OpRead,
                    _ => Kind::OpUpdate,
                };
                // Whole and detail spans alternate.
                trace::begin_op_span(kind, (ops / OP_SAMPLE_EVERY) % 2 == 1);
                let answer = apply(map, tid, op);
                trace::end_op_span();
                answer
            } else {
                apply(map, tid, op)
            };
            oracle.check(op, answer);
            ops += 1;
            if ops.is_multiple_of(POLL_EVERY) {
                garbage_peak = garbage_peak.max(smr.stats().unreclaimed_nodes());
                let elapsed = start.elapsed();
                // A poll that comes several windows late (a preemption)
                // charges its operations to the first of them.
                while elapsed >= next_window {
                    window_ops.push(ops - window_start);
                    window_start = ops;
                    next_window += WINDOW;
                }
                if tid == 0 && elapsed >= next_rss {
                    rss_peak_kb = rss_peak_kb.max(rss_kb());
                    next_rss = elapsed + RSS_EVERY;
                }
                if elapsed >= spec.slice {
                    break;
                }
            }
        }
    }
    let elapsed = start.elapsed();
    garbage_peak = garbage_peak.max(smr.stats().unreclaimed_nodes());
    let trace = S::TRACED.then(|| {
        let (calls, log) = trace::take();
        ClientTrace {
            calls,
            log,
            empty_span_ticks,
        }
    });
    drop(reg);
    ClientOut {
        ops,
        window_ops,
        start,
        elapsed,
        garbage_peak,
        rss_peak_kb,
        oracle,
        trace,
    }
}

/// Tests that measure time take this lock, so that `cargo test`'s parallel
/// threads do not run them against each other on the two CPUs.
#[cfg(test)]
pub fn timing_tests() -> std::sync::MutexGuard<'static, ()> {
    static SERIAL: std::sync::Mutex<()> = std::sync::Mutex::new(());
    SERIAL
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A map that answers every `lie_every`-th update wrongly, to prove the
/// oracle and the end-state check notice.
#[cfg(test)]
pub mod lying {
    use super::*;
    use crate::adapter::Smr;
    use std::sync::atomic::{AtomicU64, Ordering};

    pub struct Lying<M> {
        pub inner: M,
        pub lie_every: u64,
        pub calls: AtomicU64,
    }

    impl<M> Lying<M> {
        fn lie(&self) -> bool {
            (self.calls.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(self.lie_every)
        }
    }

    impl<S: Smr, M: ConcurrentMap<S>> ConcurrentMap<S> for Lying<M> {
        const DS_NAME: &'static str = "LYING";

        fn with_domain(smr: Arc<S>) -> Self {
            Lying {
                inner: M::with_domain(smr),
                lie_every: 1000,
                calls: AtomicU64::new(0),
            }
        }

        fn smr(&self) -> &Arc<S> {
            self.inner.smr()
        }

        fn insert(&self, tid: usize, key: u64, value: u64) -> bool {
            self.inner.insert(tid, key, value) ^ self.lie()
        }

        fn remove(&self, tid: usize, key: u64) -> bool {
            self.inner.remove(tid, key) ^ self.lie()
        }

        fn contains(&self, tid: usize, key: u64) -> bool {
            self.inner.contains(tid, key)
        }

        fn get(&self, tid: usize, key: u64) -> Option<u64> {
            self.inner.get(tid, key)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::lying::Lying;
    use super::*;
    use crate::workload;

    fn spec(name: &str, scheme: Scheme, traced: bool, ms: u64) -> TrialSpec {
        TrialSpec {
            workload: workload::by_name(name).unwrap(),
            scheme,
            seed: 11,
            slice: Duration::from_millis(ms),
            traced,
        }
    }

    #[test]
    fn every_scheme_passes_the_oracle_on_every_workload() {
        for w in &workload::ALL {
            for scheme in Scheme::ALL {
                let out = run_trial(&spec(w.name, scheme, false, 30));
                assert_eq!(out.failed, 0, "{} / {scheme:?}", w.name);
                assert!(out.ops > 0 && out.mops > 0.0 && out.setup_s > 0.0);
                assert!(out.attempted >= out.ops + w.key_range);
                assert!(out.traces.is_empty());
            }
        }
    }

    #[test]
    fn same_seed_same_streams_and_outcomes() {
        // One active client, so the stream length is the only thing that
        // could differ between two runs; the digest covers a fixed prefix
        // (the prefill) plus however many slice operations ran, so compare
        // the prefill-only digests of two zero-length slices.
        let a = run_trial(&spec("stalled-reader", Scheme::HpPop, false, 0));
        let b = run_trial(&spec("stalled-reader", Scheme::Ebr, false, 0));
        assert_eq!(a.ops, POLL_EVERY, "a zero slice stops at the first poll");
        assert_eq!((a.ops, a.digest), (b.ops, b.digest));
        let mut other = spec("stalled-reader", Scheme::HpPop, false, 0);
        other.seed += 1;
        assert_ne!(run_trial(&other).digest, a.digest);
    }

    /// The trial body over a structure wrapped in [`Lying`].
    struct LyingBody<'a>(&'a TrialSpec);

    impl TrialFn for LyingBody<'_> {
        type Out = TrialOut;
        fn run<S: Probe, M: ConcurrentMap<S>>(self, make: impl FnOnce(Arc<S>) -> M) -> TrialOut {
            Body(self.0).run::<S, Lying<M>>(|smr| Lying {
                inner: make(smr),
                lie_every: 1000,
                calls: Default::default(),
            })
        }
    }

    #[test]
    fn a_lying_map_makes_the_failed_share_non_zero() {
        let s = spec("hash-update", Scheme::HpPop, false, 30);
        let out = dispatch(s.scheme, s.workload.structure, false, LyingBody(&s));
        assert!(out.failed > 0, "the oracle must notice a wrong answer");
        assert!(out.failed as f64 / out.attempted as f64 > 0.0);
        assert!(
            out.failed >= out.ops / 1000 / 2,
            "about one update in a thousand lies: {} of {}",
            out.failed,
            out.ops
        );
    }
}
