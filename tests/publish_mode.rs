//! Publish-mode equivalence suite (PR 8).
//!
//! The signal fan-out and the membarrier publish path must be
//! observationally equivalent: the same churn workload completes, every
//! retired node is freed on drain, and conservation holds — only the
//! *mechanism* counters differ (pings vs membarrier passes). The
//! feature-gated fallback test forces `membarrier(2)` to report
//! unavailable and checks a membarrier-configured domain transparently
//! runs the signal path instead.

use std::sync::Arc;

use pop::ds::hml::HmList;
use pop::ds::ConcurrentMap;
use pop::smr::config::PublishMode;
#[cfg(feature = "fault-injection")]
use pop::smr::HazardEraPop;
use pop::smr::{EpochPop, HazardPtrPop, Smr, SmrConfig, Vbr};

const WORKERS: usize = 3;
const KEYS: u64 = 64;
const OPS_PER_WORKER: u64 = 4_000;

/// Serializes fault-plan tests in this binary around the process-global
/// plan (feature-on); a no-op guard otherwise.
fn plan_lock() -> Option<std::sync::MutexGuard<'static, ()>> {
    #[cfg(feature = "fault-injection")]
    {
        Some(pop::runtime::faults::test_lock())
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        None
    }
}

fn cfg(mode: PublishMode) -> SmrConfig {
    // `for_tests` applies POP_* env overrides (the CI matrix legs);
    // pinning the mode afterwards keeps this suite's contract per-mode
    // regardless of the environment it runs under.
    SmrConfig::for_tests(WORKERS + 1)
        .with_reclaim_freq(64)
        .with_publish_spin(8)
        .with_publish_mode(mode)
}

/// Deterministic-per-thread churn: each worker inserts and removes its own
/// key stream, then the main thread drains on the spare tid. Returns the
/// domain for counter assertions.
fn churn<S: Smr>(config: SmrConfig) -> Arc<S> {
    let smr = S::new(config);
    let map = Arc::new(HmList::with_domain(Arc::clone(&smr)));
    // Everyone registers before anyone churns: on a fast host a worker
    // otherwise finishes before the next one exists, and no pass ever has
    // a peer to ping (or to elide a ping to).
    let all_registered = Arc::new(std::sync::Barrier::new(WORKERS));
    let handles: Vec<_> = (0..WORKERS)
        .map(|tid| {
            let map = Arc::clone(&map);
            let smr = Arc::clone(&smr);
            let all_registered = Arc::clone(&all_registered);
            std::thread::spawn(move || {
                let reg = smr.register(tid);
                all_registered.wait();
                let mut k = tid as u64;
                for _ in 0..OPS_PER_WORKER {
                    map.insert(tid, k % KEYS, k);
                    map.remove(tid, k % KEYS);
                    k = k.wrapping_add(7);
                }
                drop(reg);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let reg = smr.register(WORKERS);
    // Workers that overlapped leave orphans behind (VBR most of all: a
    // peer's announcement pins its exit flush), and a pass steals one
    // bounded chunk of them — so drain for as long as flushes make
    // progress, and give up only after 200 that made none.
    let (mut left, mut stalled) = (u64::MAX, 0);
    while stalled < 200 {
        smr.flush(WORKERS);
        let now = smr.stats().snapshot().unreclaimed_nodes();
        if now == 0 {
            break;
        }
        if now < left {
            (left, stalled) = (now, 0);
        } else {
            stalled += 1;
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    // The workload is self-cancelling: every worker removes what it
    // inserted, so the drained list must be empty in every mode.
    for k in 0..KEYS {
        assert!(map.get(WORKERS, k).is_none(), "key {k} survived the churn");
    }
    drop(reg);
    smr
}

fn assert_drained_and_conserved<S: Smr>(smr: &S, name: &str) {
    let s = smr.stats().snapshot();
    assert_eq!(
        s.unreclaimed_nodes(),
        0,
        "{name}: drain must free everything"
    );
    assert!(
        s.freed_nodes <= s.retired_nodes && s.retired_nodes <= s.allocated_nodes,
        "{name}: conservation violated: {s:?}"
    );
}

/// The signal fan-out and the membarrier path run the identical workload
/// to the identical end state; only the mechanism counters differ.
///
/// `every_pass_publishes` is true for schemes whose every reclamation pass
/// runs the publish machinery (HazardPtrPOP); EpochPOP only publishes on
/// its stalled-epoch *escalation*, which benign churn may never trigger,
/// so its mechanism counters are load-dependent and not asserted.
fn equivalence_trial<S: Smr>(name: &str, every_pass_publishes: bool) {
    let _g = plan_lock();
    let signal = churn::<S>(cfg(PublishMode::Futex));
    assert_drained_and_conserved(&*signal, name);
    let sig_stats = signal.stats().snapshot();
    // The fan-out engine must have engaged; whether a given peer was
    // signalled or filtered as quiescent is timing.
    if every_pass_publishes {
        assert!(
            sig_stats.pings_sent + sig_stats.pings_skipped > 0,
            "{name}: signal mode must run the fan-out: {sig_stats:?}"
        );
    }
    assert_eq!(
        sig_stats.membarrier_passes, 0,
        "{name}: signal mode must not issue membarriers"
    );

    if cfg(PublishMode::Membarrier).resolved_publish_mode() != PublishMode::Membarrier {
        eprintln!("{name}: membarrier unavailable on this host; fan-out side only");
        return;
    }
    let mb = churn::<S>(cfg(PublishMode::Membarrier));
    assert_drained_and_conserved(&*mb, name);
    let mb_stats = mb.stats().snapshot();
    // An env-armed fault plan (the CI fault matrix) can fail the heavy
    // barrier mid-run, stickily downgrading the domain to the fan-out —
    // then signals are expected. Absent that, the mechanism contract is
    // strict: no signals, only heavy barriers.
    #[cfg(feature = "fault-injection")]
    let heavy_faulted =
        pop::runtime::faults::injected(pop::runtime::faults::FaultSite::MembarrierFail) > 0;
    #[cfg(not(feature = "fault-injection"))]
    let heavy_faulted = false;
    if !heavy_faulted {
        assert_eq!(
            mb_stats.pings_sent, 0,
            "{name}: membarrier mode must not signal: {mb_stats:?}"
        );
        if every_pass_publishes {
            assert!(
                mb_stats.membarrier_passes > 0,
                "{name}: membarrier mode must issue heavy barriers: {mb_stats:?}"
            );
            // Drain-phase passes run with no registered peers
            // (signals_avoided stays flat there), but the churn phase has
            // three — the counter must show fan-outs were actually elided,
            // not merely never needed.
            assert!(
                mb_stats.signals_avoided > 0,
                "{name}: churn passes must elide real fan-outs: {mb_stats:?}"
            );
        }
    }
    // Same lifetime identity on both sides. (Absolute allocation counts
    // differ run to run — contended inserts allocate-and-retire on CAS
    // failure — so the identity, not the raw count, is the contract.)
    assert_eq!(
        mb_stats.freed_nodes, mb_stats.retired_nodes,
        "{name}: membarrier drain must free every retired node"
    );
    assert_eq!(
        sig_stats.freed_nodes, sig_stats.retired_nodes,
        "{name}: signal drain must free every retired node"
    );
}

#[test]
fn hazard_ptr_pop_modes_are_equivalent() {
    equivalence_trial::<HazardPtrPop>("HazardPtrPop", true);
}

#[test]
fn epoch_pop_modes_are_equivalent() {
    equivalence_trial::<EpochPop>("EpochPop", false);
}

/// The fan-out has one wait flavor — spin, then park on the peer's
/// publish word — and it drains the churn on its own, without a single
/// heavy barrier.
#[test]
fn fan_out_flavors_agree() {
    let _g = plan_lock();
    let futex = churn::<HazardPtrPop>(cfg(PublishMode::Futex));
    assert_drained_and_conserved(&*futex, "futex");
    let s = futex.stats().snapshot();
    assert!(
        s.pings_sent + s.pings_skipped > 0,
        "futex flavor must run the fan-out: {s:?}"
    );
    assert_eq!(s.membarrier_passes, 0, "fan-out flavor never membarriers");
}

/// VBR's version stamps replace the publish step entirely: whatever mode
/// the domain is configured with, the same churn drains with zero pings
/// and zero membarriers (ISSUE 10 — `NEEDS_SIGNALS` is false and no pass
/// ever touches the publish machinery).
#[test]
fn vbr_uses_neither_publish_mechanism() {
    let _g = plan_lock();
    for mode in [PublishMode::Futex, PublishMode::Membarrier] {
        let smr = churn::<Vbr>(cfg(mode));
        assert_drained_and_conserved(&*smr, "vbr");
        let s = smr.stats().snapshot();
        assert_eq!(
            s.pings_sent + s.pings_skipped,
            0,
            "VBR must never run the signal fan-out ({mode:?}): {s:?}"
        );
        assert_eq!(
            s.membarrier_passes, 0,
            "VBR must never issue a heavy barrier ({mode:?}): {s:?}"
        );
    }
}

/// Forcing `membarrier(2)` to report unavailable downgrades a
/// membarrier-configured domain to the signal path before construction:
/// same workload, same drain, zero membarrier passes.
#[cfg(feature = "fault-injection")]
#[test]
fn unavailable_membarrier_falls_back_to_signals() {
    use pop::runtime::faults::{self, FaultPlan, FaultSite};
    let _g = plan_lock();
    faults::install(FaultPlan::default().with_rate(FaultSite::MembarrierUnavailable, 1));
    let config = cfg(PublishMode::Membarrier);
    assert_ne!(
        config.resolved_publish_mode(),
        PublishMode::Membarrier,
        "injected unavailability must resolve to a fan-out mode"
    );
    let smr = churn::<HazardEraPop>(config);
    faults::clear();
    assert_drained_and_conserved(&*smr, "forced-fallback");
    let s = smr.stats().snapshot();
    assert_eq!(
        s.membarrier_passes, 0,
        "fallback domain must never issue a heavy barrier: {s:?}"
    );
    assert!(
        s.pings_sent + s.pings_skipped > 0,
        "fallback domain must run the signal fan-out: {s:?}"
    );
}
