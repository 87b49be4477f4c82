//! The timed multi-threaded benchmark driver.
//!
//! Mirrors the paper's methodology (§5.0.2): parallel prefill to half the
//! key range, a barrier, a fixed-duration measured phase of uniformly
//! random operations, and metric collection (throughput in Mops/s, max
//! retire-list length, live-bytes high-water, unreclaimed nodes at end).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use pop_core::{Smr, SmrConfig};
use pop_ds::ConcurrentMap;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::mix::{OpKind, WorkloadKind};
use crate::report::RunRecord;

/// Benchmark run parameters.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Worker thread count.
    pub threads: usize,
    /// Measured-phase duration.
    pub duration: Duration,
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Workload shape (uniform mix or long-running reads).
    pub kind: WorkloadKind,
    /// Prefill to `key_range / 2` before measuring (paper methodology).
    pub prefill: bool,
    /// Pin thread `t` to CPU `t % ncpus`.
    pub pin_threads: bool,
    /// RNG seed (each thread derives its own stream).
    pub seed: u64,
    /// Zipf skew exponent for key draws; `0.0` = uniform (the paper's
    /// distribution), `>0` enables the contention-skew ablation.
    pub skew: f64,
}

impl RunConfig {
    /// A config with the paper's defaults for the given thread count and
    /// key range, scaled to short trials.
    pub fn new(threads: usize, key_range: u64, kind: WorkloadKind) -> Self {
        RunConfig {
            threads,
            duration: Duration::from_millis(1000),
            key_range,
            kind,
            prefill: true,
            pin_threads: true,
            seed: 0x5EED_CAFE,
            skew: 0.0,
        }
    }
}

/// Memory-metrics sampler: polls the domain's live-byte count on a fixed
/// period and records the high-water mark, standing in for the paper's
/// max-resident-memory measurements (DESIGN.md substitution S6).
struct Sampler {
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sampler {
    fn start<S: Smr>(smr: &Arc<S>) -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let handle = {
            let smr = Arc::clone(smr);
            let stop = Arc::clone(&stop);
            let peak = Arc::clone(&peak);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Acquire) {
                    peak.fetch_max(smr.stats().live_bytes(), Ordering::Relaxed);
                    std::thread::sleep(Duration::from_millis(10));
                }
                peak.fetch_max(smr.stats().live_bytes(), Ordering::Relaxed);
            })
        };
        Sampler {
            stop,
            peak,
            handle: Some(handle),
        }
    }

    fn finish(mut self) -> u64 {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
        self.peak.load(Ordering::Relaxed)
    }
}

/// Runs one benchmark trial of structure `M` under scheme `S`.
///
/// `smr_cfg.max_threads` is raised to the worker count automatically.
pub fn run_workload<S, M, F>(cfg: &RunConfig, mut smr_cfg: SmrConfig, make: F) -> RunRecord
where
    S: Smr,
    M: ConcurrentMap<S>,
    F: FnOnce(Arc<S>) -> M,
{
    assert!(cfg.threads >= 1);
    smr_cfg.max_threads = smr_cfg.max_threads.max(cfg.threads);
    let smr = S::new(smr_cfg);
    let map = Arc::new(make(Arc::clone(&smr)));

    let stop = Arc::new(AtomicBool::new(false));
    // Two barrier crossings: prefill-done and measurement-start, so every
    // thread measures the same window.
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    let sampler = Sampler::start(&smr);
    let zipf = match (cfg.kind, cfg.skew) {
        (_, s) if s <= 0.0 => None,
        (WorkloadKind::Uniform(_), s) => Some(crate::zipf::Zipf::new(cfg.key_range, s)),
        (WorkloadKind::LongRunningReads { .. }, s) => panic!(
            "skew = {s} is incompatible with WorkloadKind::LongRunningReads: \
             the long-running-reads shape draws reader keys uniformly and \
             confines updaters to update_range (skew would be silently \
             ignored); use WorkloadKind::Uniform for the skew ablation"
        ),
    };

    // Deadline enforcement: the main thread's `sleep` can wake late under
    // oversubscription (scheduler latency is unbounded), so the *workers*
    // — which are on-core by definition while the trial runs — also poll
    // the deadline and the first thread past it stamps the window end.
    // `deadline_ns`/`end_ns` are nanoseconds since `epoch`.
    let epoch = Instant::now();
    let deadline_ns = Arc::new(AtomicU64::new(0));
    let end_ns = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::with_capacity(cfg.threads);
    for tid in 0..cfg.threads {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let deadline_ns = Arc::clone(&deadline_ns);
        let end_ns = Arc::clone(&end_ns);
        let zipf = zipf.as_ref().map(|z| z.clone_handle());
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            if cfg.pin_threads {
                pop_runtime::affinity::pin_current_to(tid);
            }
            let reg = map.smr().register(tid);
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (tid as u64).wrapping_mul(0x9E37));

            // Parallel prefill: each thread inserts the even keys of its
            // partition in *shuffled* order (sequential insertion would
            // degenerate the unbalanced trees into spines — the paper's
            // setbench prefills with random inserts), filling the
            // structure to key_range / 2.
            if cfg.prefill {
                use rand::seq::SliceRandom;
                let half = cfg.key_range / 2;
                let chunk = half / cfg.threads as u64;
                let lo = tid as u64 * chunk;
                let hi = if tid == cfg.threads - 1 {
                    half
                } else {
                    lo + chunk
                };
                let mut keys: Vec<u64> = (lo..hi).map(|i| i * 2).collect();
                keys.shuffle(&mut rng);
                for k in keys {
                    map.insert(tid, k, k);
                }
            }
            barrier.wait(); // prefill complete
            barrier.wait(); // measurement starts

            let mut ops = 0u64;
            let mut reads = 0u64;
            let mut updates = 0u64;
            let reader_role = match cfg.kind {
                WorkloadKind::Uniform(_) => false,
                WorkloadKind::LongRunningReads { .. } => tid < cfg.threads / 2,
            };
            while !stop.load(Ordering::Relaxed) {
                let draw = rng.gen_range(0u32..100);
                let (op, key) = match cfg.kind {
                    WorkloadKind::Uniform(mix) => {
                        let key = match &zipf {
                            Some(z) => z.rank(rng.gen::<f64>()),
                            None => rng.gen_range(0..cfg.key_range),
                        };
                        (mix.pick(draw), key)
                    }
                    WorkloadKind::LongRunningReads { update_range } => {
                        if reader_role {
                            (OpKind::Contains, rng.gen_range(0..cfg.key_range))
                        } else {
                            let op = if draw < 50 {
                                OpKind::Insert
                            } else {
                                OpKind::Delete
                            };
                            (op, rng.gen_range(0..update_range.max(1)))
                        }
                    }
                };
                match op {
                    OpKind::Insert => {
                        map.insert(tid, key, key);
                        updates += 1;
                    }
                    OpKind::Delete => {
                        map.remove(tid, key);
                        updates += 1;
                    }
                    OpKind::Contains => {
                        map.contains(tid, key);
                        reads += 1;
                    }
                }
                ops += 1;
                // Deadline poll (cheap vdso clock read, amortized over 32
                // ops): whoever crosses first stamps the window end and
                // raises the stop flag, so the measured window closes at
                // the deadline even if the main thread oversleeps.
                if ops.is_multiple_of(32) {
                    let dl = deadline_ns.load(Ordering::Acquire);
                    if dl != 0 {
                        let now = epoch.elapsed().as_nanos() as u64;
                        if now >= dl {
                            let _ = end_ns.compare_exchange(
                                0,
                                now,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            );
                            stop.store(true, Ordering::Release);
                        }
                    }
                }
            }
            drop(reg);
            (ops, reads, updates)
        }));
    }

    barrier.wait(); // all prefilled
    barrier.wait(); // start measuring
                    // The throughput denominator must bracket exactly the measured window:
                    // t0 *after* the start barrier releases (not before — barrier wake-up
                    // skew is not measured work) and elapsed immediately after the stop
                    // flag is raised (not after the joins — stop-flag observation skew,
                    // `drop(reg)` orphan-sealing and reclamation drain all happen *after*
                    // the window, and that teardown error grows with thread count).
    let t0_ns = epoch.elapsed().as_nanos() as u64;
    deadline_ns.store(t0_ns + cfg.duration.as_nanos() as u64, Ordering::Release);
    std::thread::sleep(cfg.duration);
    let now = epoch.elapsed().as_nanos() as u64;
    // A worker usually beat us to the deadline (its stamp wins); this CAS
    // only lands when every worker was off-core or idle at the deadline.
    let _ = end_ns.compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire);
    stop.store(true, Ordering::Release);
    let elapsed_ns = end_ns.load(Ordering::Acquire).saturating_sub(t0_ns).max(1);
    let elapsed = Duration::from_nanos(elapsed_ns);

    let mut ops = 0u64;
    let mut reads = 0u64;
    let mut updates = 0u64;
    for h in handles {
        let (o, r, u) = h.join().expect("worker panicked");
        ops += o;
        reads += r;
        updates += u;
    }
    let peak_bytes = sampler.finish();
    let stats = smr.stats().snapshot();

    RunRecord {
        scheme: S::NAME,
        ds: M::DS_NAME,
        threads: cfg.threads,
        key_range: cfg.key_range,
        ops,
        read_ops: reads,
        update_ops: updates,
        seconds: elapsed.as_secs_f64(),
        throughput_mops: ops as f64 / elapsed.as_secs_f64() / 1e6,
        read_mops: reads as f64 / elapsed.as_secs_f64() / 1e6,
        max_retire_len: stats.max_retire_len,
        peak_live_bytes: peak_bytes,
        unreclaimed_nodes: stats.unreclaimed_nodes(),
        pings_sent: stats.pings_sent,
        pings_skipped: stats.pings_skipped,
        membarrier_passes: stats.membarrier_passes,
        signals_avoided: stats.signals_avoided,
        batches_sealed: stats.batches_sealed,
        restarts: stats.restarts,
        publish_wait_timeouts: stats.publish_wait_timeouts,
        pings_failed: stats.pings_failed,
        participants_reaped: stats.participants_reaped,
        faults_injected: stats.faults_injected,
        pool_blocks_trimmed: stats.pool_blocks_trimmed,
        slab_allocs: stats.slab_allocs,
        slab_frees_whole: stats.slab_frees_whole,
        version_aborts: stats.version_aborts,
        slab_released_bytes: stats.slab_released_bytes,
    }
}

/// Latency percentiles from [`run_latency_probe`].
#[derive(Clone, Debug)]
pub struct LatencyReport {
    /// Scheme label.
    pub scheme: &'static str,
    /// Structure label.
    pub ds: &'static str,
    /// Read-op latency (ns): p50, p99, p999, max.
    pub read_ns: (u64, u64, u64, u64),
    /// Update-op latency (ns): p50, p99, p999, max.
    pub update_ns: (u64, u64, u64, u64),
    /// Samples recorded.
    pub samples: u64,
    /// Measured-phase wall time — bracketed exactly like
    /// [`run_workload`]'s (start barrier → stop flag, never the joins).
    pub seconds: f64,
}

/// Tail-latency extension experiment: like [`run_workload`], but samples
/// per-operation latency (every 16th op, to keep `Instant::now` overhead
/// off the common path) into log-bucketed histograms.
///
/// The question this answers — implicit in the paper's signal-overhead
/// discussion — is whether reclamation pings (which interrupt readers via
/// the signal handler) are visible in reader tail latency.
pub fn run_latency_probe<S, M, F>(cfg: &RunConfig, mut smr_cfg: SmrConfig, make: F) -> LatencyReport
where
    S: Smr,
    M: ConcurrentMap<S>,
    F: FnOnce(Arc<S>) -> M,
{
    use crate::histogram::LatencyHistogram;

    smr_cfg.max_threads = smr_cfg.max_threads.max(cfg.threads);
    let smr = S::new(smr_cfg);
    let map = Arc::new(make(Arc::clone(&smr)));
    let stop = Arc::new(AtomicBool::new(false));
    let barrier = Arc::new(Barrier::new(cfg.threads + 1));
    // Worker-enforced deadline, as in `run_workload`.
    let epoch = Instant::now();
    let deadline_ns = Arc::new(AtomicU64::new(0));
    let end_ns = Arc::new(AtomicU64::new(0));

    let mut handles = Vec::with_capacity(cfg.threads);
    for tid in 0..cfg.threads {
        let map = Arc::clone(&map);
        let stop = Arc::clone(&stop);
        let barrier = Arc::clone(&barrier);
        let deadline_ns = Arc::clone(&deadline_ns);
        let end_ns = Arc::clone(&end_ns);
        let cfg = cfg.clone();
        handles.push(std::thread::spawn(move || {
            if cfg.pin_threads {
                pop_runtime::affinity::pin_current_to(tid);
            }
            let reg = map.smr().register(tid);
            let mut rng = SmallRng::seed_from_u64(cfg.seed ^ (tid as u64) << 7);
            if cfg.prefill {
                use rand::seq::SliceRandom;
                let half = cfg.key_range / 2;
                let chunk = half / cfg.threads as u64;
                let lo = tid as u64 * chunk;
                let hi = if tid == cfg.threads - 1 {
                    half
                } else {
                    lo + chunk
                };
                let mut keys: Vec<u64> = (lo..hi).map(|i| i * 2).collect();
                keys.shuffle(&mut rng);
                for k in keys {
                    map.insert(tid, k, k);
                }
            }
            barrier.wait();
            barrier.wait();
            let mix = match cfg.kind {
                WorkloadKind::Uniform(m) => m,
                WorkloadKind::LongRunningReads { .. } => crate::mix::OpMix::READ_HEAVY,
            };
            let mut reads = LatencyHistogram::new();
            let mut updates = LatencyHistogram::new();
            let mut i = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let draw = rng.gen_range(0u32..100);
                let key = rng.gen_range(0..cfg.key_range);
                let op = mix.pick(draw);
                let sample = i.is_multiple_of(16);
                let t0 = if sample { Some(Instant::now()) } else { None };
                let is_read = match op {
                    OpKind::Insert => {
                        map.insert(tid, key, key);
                        false
                    }
                    OpKind::Delete => {
                        map.remove(tid, key);
                        false
                    }
                    OpKind::Contains => {
                        map.contains(tid, key);
                        true
                    }
                };
                if let Some(t0) = t0 {
                    let ns = t0.elapsed().as_nanos() as u64;
                    if is_read {
                        reads.record(ns);
                    } else {
                        updates.record(ns);
                    }
                }
                i += 1;
                // Same worker-side deadline poll as `run_workload`.
                if i.is_multiple_of(32) {
                    let dl = deadline_ns.load(Ordering::Acquire);
                    if dl != 0 {
                        let now = epoch.elapsed().as_nanos() as u64;
                        if now >= dl {
                            let _ = end_ns.compare_exchange(
                                0,
                                now,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            );
                            stop.store(true, Ordering::Release);
                        }
                    }
                }
            }
            drop(reg);
            (reads, updates)
        }));
    }
    barrier.wait();
    barrier.wait();
    // Same timing audit as `run_workload`: the window opens after the
    // start barrier releases and closes at the deadline stamp (worker- or
    // main-thread side, whichever crosses first), before the joins.
    let t0_ns = epoch.elapsed().as_nanos() as u64;
    deadline_ns.store(t0_ns + cfg.duration.as_nanos() as u64, Ordering::Release);
    std::thread::sleep(cfg.duration);
    let now = epoch.elapsed().as_nanos() as u64;
    let _ = end_ns.compare_exchange(0, now, Ordering::AcqRel, Ordering::Acquire);
    stop.store(true, Ordering::Release);
    let elapsed_ns = end_ns.load(Ordering::Acquire).saturating_sub(t0_ns).max(1);
    let elapsed = Duration::from_nanos(elapsed_ns);

    let mut reads = crate::histogram::LatencyHistogram::new();
    let mut updates = crate::histogram::LatencyHistogram::new();
    for h in handles {
        let (r, u) = h.join().expect("latency worker panicked");
        reads.merge(&r);
        updates.merge(&u);
    }
    LatencyReport {
        scheme: S::NAME,
        ds: M::DS_NAME,
        read_ns: reads.summary(),
        update_ns: updates.summary(),
        samples: reads.len() + updates.len(),
        seconds: elapsed.as_secs_f64(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::OpMix;
    use pop_core::{Ebr, HazardPtrPop, SmrConfig};
    use pop_ds::hml::HmList;

    #[test]
    fn short_run_produces_sane_numbers() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(100),
            key_range: 128,
            kind: WorkloadKind::Uniform(OpMix::UPDATE_HEAVY),
            prefill: true,
            pin_threads: false,
            seed: 7,
            skew: 0.0,
        };
        let rec = run_workload::<HazardPtrPop, HmList<HazardPtrPop>, _>(
            &cfg,
            SmrConfig::for_tests(2).with_reclaim_freq(64),
            HmList::new,
        );
        assert_eq!(rec.scheme, "HazardPtrPOP");
        assert_eq!(rec.ds, "HML");
        assert!(rec.ops > 0, "no operations executed");
        assert!(rec.throughput_mops > 0.0);
        assert_eq!(rec.read_ops, 0, "update-heavy mix has no contains");
    }

    #[test]
    fn latency_probe_produces_percentiles() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(120),
            key_range: 128,
            kind: WorkloadKind::Uniform(OpMix::READ_HEAVY),
            prefill: true,
            pin_threads: false,
            seed: 3,
            skew: 0.0,
        };
        let rep = run_latency_probe::<HazardPtrPop, HmList<HazardPtrPop>, _>(
            &cfg,
            SmrConfig::for_tests(2).with_reclaim_freq(128),
            HmList::new,
        );
        assert!(rep.samples > 0);
        let (p50, p99, p999, max) = rep.read_ns;
        assert!(p50 <= p99 && p99 <= p999 && p999 <= max);
        assert!(max > 0);
    }

    #[test]
    fn zipf_skew_runs_and_counts() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(100),
            key_range: 512,
            kind: WorkloadKind::Uniform(OpMix::UPDATE_HEAVY),
            prefill: true,
            pin_threads: false,
            seed: 11,
            skew: 0.99,
        };
        let rec = run_workload::<Ebr, HmList<Ebr>, _>(
            &cfg,
            SmrConfig::for_tests(2).with_reclaim_freq(64),
            HmList::new,
        );
        assert!(rec.ops > 0, "skewed workload must execute");
    }

    #[test]
    fn oversubscribed_run_completes() {
        // More worker threads than this host has CPUs: the paper's §4.1.2
        // worst case for ping-based reclamation — must terminate and drain.
        let threads = pop_runtime::affinity::num_cpus() * 2 + 1;
        let cfg = RunConfig {
            threads,
            duration: Duration::from_millis(150),
            key_range: 256,
            kind: WorkloadKind::Uniform(OpMix::UPDATE_HEAVY),
            prefill: true,
            pin_threads: false,
            seed: 13,
            skew: 0.0,
        };
        let smr_cfg = SmrConfig::for_tests(threads).with_reclaim_freq(128);
        let membarrier =
            smr_cfg.resolved_publish_mode() == pop_core::config::PublishMode::Membarrier;
        let rec = run_workload::<HazardPtrPop, HmList<HazardPtrPop>, _>(&cfg, smr_cfg, HmList::new);
        assert!(rec.ops > 0);
        if membarrier {
            // POP_PUBLISH_MODE=membarrier leg: the same worst case must be
            // absorbed by heavy barriers instead of a signal storm.
            assert!(
                rec.membarrier_passes > 0,
                "oversubscribed churn must exercise the membarrier path"
            );
            assert_eq!(rec.pings_sent, 0, "no signals in membarrier mode");
        } else {
            assert!(
                rec.pings_sent > 0,
                "oversubscribed churn must exercise the signal path"
            );
        }
    }

    #[test]
    #[should_panic(expected = "incompatible with WorkloadKind::LongRunningReads")]
    fn skew_plus_long_running_reads_is_an_error() {
        // Regression: skew used to be *silently ignored* for the
        // long-running-reads shape (the Zipf table was even built).
        let cfg = RunConfig {
            threads: 1,
            duration: Duration::from_millis(10),
            key_range: 64,
            kind: WorkloadKind::LongRunningReads { update_range: 8 },
            prefill: false,
            pin_threads: false,
            seed: 1,
            skew: 0.99,
        };
        let _ = run_workload::<Ebr, HmList<Ebr>, _>(&cfg, SmrConfig::for_tests(1), HmList::new);
    }

    #[test]
    fn long_running_reads_split_roles() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(100),
            key_range: 256,
            kind: WorkloadKind::LongRunningReads { update_range: 16 },
            prefill: true,
            pin_threads: false,
            seed: 9,
            skew: 0.0,
        };
        let rec = run_workload::<Ebr, HmList<Ebr>, _>(
            &cfg,
            SmrConfig::for_tests(2).with_reclaim_freq(64),
            HmList::new,
        );
        assert!(rec.read_ops > 0, "reader role must run contains");
        assert!(rec.update_ops > 0, "updater role must run updates");
    }
}
