//! Chaos harness: the cross-scheme lifecycle under seeded fault plans, plus
//! the panic-during-op matrix.
//!
//! Three failure families drive the resilience machinery end to end:
//!
//! * **lost/spurious futex wakes** — publish waiters must ride their
//!   timeout backstops and the pass watchdog, never wedge;
//! * **dropped/delayed pings** — a publish that never happens must expire
//!   the `publish_deadline` watchdog, mark the laggard suspect (its local
//!   reservations honored conservatively), and complete the pass;
//! * **a killed writer** — a thread that dies mid-operation without
//!   unregistering must be probed dead, reaped, and its retire blocks
//!   freed by the survivors.
//!
//! Every trial runs under a hard wall-clock deadline (a wedged
//! `ping_all_and_wait` fails the test instead of hanging CI), with the
//! quarantine use-after-free oracle armed — "conservative" must never
//! mean "freed something a reader could still reach".
//!
//! The fault-plan tests need `--features fault-injection`; the
//! panic-during-op matrix runs in every configuration (unwinding is not a
//! fault we inject, it is one Rust hands us for free).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use pop::ds::hml::HmList;
use pop::ds::ConcurrentMap;
use pop::runtime::faults;
#[cfg(feature = "fault-injection")]
use pop::runtime::faults::{FaultPlan, FaultSite};
use pop::smr::{
    retire_node, Ebr, EpochPop, HasHeader, HazardEra, HazardEraPop, HazardPtr, HazardPtrAsym,
    HazardPtrPop, Header, Hyaline, Ibr, NbrPlus, NoReclaim, OpGuard, PressureRung, Smr, SmrConfig,
    StatsSnapshot, Vbr,
};

const WORKERS: usize = 3;
const KEYS: u64 = 64;

/// Serializes tests in this binary around the process-global fault plan
/// (feature-on); a no-op guard otherwise.
fn plan_lock() -> Option<std::sync::MutexGuard<'static, ()>> {
    #[cfg(feature = "fault-injection")]
    return Some(faults::test_lock());
    #[cfg(not(feature = "fault-injection"))]
    None
}

/// Runs `f` on its own thread and panics if it exceeds `deadline` — the
/// harness-level "no deadlock" assertion for every chaos trial.
fn with_deadline<T: Send + 'static>(
    name: &'static str,
    deadline: Duration,
    f: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    let h = std::thread::spawn(move || {
        let _ = tx.send(f());
    });
    match rx.recv_timeout(deadline) {
        Ok(v) => {
            h.join().expect("trial thread panicked after reporting");
            v
        }
        Err(_) => panic!("{name}: trial exceeded {deadline:?} — a wait path is wedged"),
    }
}

/// Churn config shared by every trial: small thresholds so reclamation
/// passes are frequent, a short pass watchdog so injected stalls cost
/// milliseconds not seconds, and the quarantine oracle armed throughout.
fn chaos_cfg() -> SmrConfig {
    SmrConfig::for_tests(WORKERS + 1)
        .with_reclaim_freq(64)
        // Exhaust the publish spin budget almost immediately so waits
        // actually park — the futex fault sites are dead code otherwise.
        .with_publish_spin(2)
        .with_publish_deadline_ns(20_000_000)
        .with_quarantine()
}

/// The lifecycle body: `WORKERS` writers churn a Harris-Michael list (with
/// `die_mid_op`, each polls the cooperative thread-death trigger and on a
/// hit abandons its registration inside an operation), then the main
/// thread registers the spare tid and drains. Returns the domain so the
/// caller can assert on counters.
#[cfg_attr(not(feature = "fault-injection"), allow(dead_code))]
fn churn_lifecycle<S: Smr>(ops_per_worker: u64, die_mid_op: bool) -> Arc<S> {
    let smr = S::new(chaos_cfg());
    let map = Arc::new(HmList::with_domain(Arc::clone(&smr)));
    let handles: Vec<_> = (0..WORKERS)
        .map(|tid| {
            let map = Arc::clone(&map);
            let smr = Arc::clone(&smr);
            std::thread::spawn(move || {
                let reg = smr.register(tid);
                let mut k = tid as u64;
                for _ in 0..ops_per_worker {
                    if die_mid_op && faults::should_die() {
                        // Die the worst way possible: inside an operation,
                        // holding a (null) protection, without
                        // unregistering — the registry keeps a registered
                        // slot pointing at a kernel thread that is gone.
                        let dummy = AtomicPtr::new(core::ptr::null_mut::<u8>());
                        smr.begin_op(tid);
                        let _ = smr.protect(tid, 0, &dummy);
                        std::mem::forget(reg);
                        return;
                    }
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
    // Survivor-side drain on the spare tid. With a killed writer, keep
    // flushing until the corpse is actually reaped, not just until the
    // accounted garbage hits zero — the dead slot's unsealed retires are
    // invisible to `unreclaimed_nodes` until a pass seals them, and under
    // load the whole churn can finish before a single watchdog expiry had
    // the chance to flag the death. The loop bound keeps a genuine leak
    // (or a never-engaging reaper) a clean failure.
    let reg = smr.register(WORKERS);
    for _ in 0..200 {
        smr.flush(WORKERS);
        let s = smr.stats().snapshot();
        if s.unreclaimed_nodes() == 0 && (!die_mid_op || s.participants_reaped >= 1) {
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    drop(reg);
    smr
}

/// Counter sanity shared by every trial: frees never exceed retires, and
/// retires never exceed allocations (conservation — a fault plan must not
/// make nodes double-free or materialize from nowhere).
fn assert_conservation<S: Smr>(smr: &S) {
    let s = smr.stats().snapshot();
    assert!(
        s.freed_nodes <= s.retired_nodes,
        "freed {} > retired {}",
        s.freed_nodes,
        s.retired_nodes
    );
    assert!(
        s.retired_nodes <= s.allocated_nodes,
        "retired {} > allocated {}",
        s.retired_nodes,
        s.allocated_nodes
    );
}

// ---------------------------------------------------------------------
// Seeded fault plans (feature-gated: the sites are no-ops otherwise).
// ---------------------------------------------------------------------

#[cfg(feature = "fault-injection")]
fn run_plan_trial<S: Smr>(name: &'static str, plan: FaultPlan) {
    let _g = plan_lock();
    faults::install(plan);
    let smr = with_deadline(name, Duration::from_secs(60), || {
        // Every armed site is only reachable from a reclamation pass that
        // actually pings / waits, and a lucky run can sail through with
        // all peers quiescent at every pass. Rerun the lifecycle (fresh
        // domain, cumulative injection counters) until the plan has
        // provably bitten at least once.
        let mut smr = churn_lifecycle::<S>(2_000, false);
        for _ in 0..9 {
            if faults::injected_total() > 0 {
                break;
            }
            smr = churn_lifecycle::<S>(2_000, false);
        }
        smr
    });
    assert!(
        faults::injected_total() > 0,
        "{name}: the plan never fired — the trial tested nothing"
    );
    faults::clear();
    // With the plan disarmed the domain must drain completely: everything
    // a conservative pass kept was garbage deferred, not garbage lost.
    let reg = smr.register(0);
    smr.flush(0);
    drop(reg);
    assert_eq!(
        smr.stats().snapshot().unreclaimed_nodes(),
        0,
        "{name}: domain must drain once faults stop"
    );
    assert_conservation(&*smr);
}

#[cfg(feature = "fault-injection")]
fn lost_wake_plan() -> FaultPlan {
    // The futex sites are only checked when a publish wait actually parks;
    // a scheme whose publishes land within the spin budget would never
    // reach them. The delayed publish is the stall-maker: it outlasts the
    // spin budget, forcing waiters onto the futex where the lost/spurious
    // wakes bite.
    FaultPlan {
        seed: 11,
        ..Default::default()
    }
    .with_rate(FaultSite::PublishDelay, 3)
    .with_rate(FaultSite::FutexLostWake, 2)
    .with_rate(FaultSite::FutexSpuriousWake, 4)
}

#[cfg(feature = "fault-injection")]
fn dropped_ping_plan() -> FaultPlan {
    FaultPlan {
        seed: 23,
        ..Default::default()
    }
    .with_rate(FaultSite::SignalDrop, 4)
    .with_rate(FaultSite::SignalDelay, 8)
    .with_rate(FaultSite::PublishDelay, 8)
}

#[cfg(feature = "fault-injection")]
macro_rules! plan_trials {
    ($($scheme:ident),+ $(,)?) => {
        mod lost_wake {
            use super::*;
            $(
                #[test]
                #[allow(non_snake_case)]
                fn $scheme() {
                    run_plan_trial::<$scheme>(
                        concat!("lost_wake/", stringify!($scheme)),
                        lost_wake_plan(),
                    );
                }
            )+
        }
        mod dropped_ping {
            use super::*;
            $(
                #[test]
                #[allow(non_snake_case)]
                fn $scheme() {
                    run_plan_trial::<$scheme>(
                        concat!("dropped_ping/", stringify!($scheme)),
                        dropped_ping_plan(),
                    );
                }
            )+
        }
    };
}

#[cfg(feature = "fault-injection")]
plan_trials!(HazardPtrPop, HazardEraPop, EpochPop, NbrPlus);

#[cfg(feature = "fault-injection")]
fn run_killed_writer_trial<S: Smr>(name: &'static str) {
    let _g = plan_lock();
    // One worker dies on its 25th between-ops poll — early enough that
    // plenty of churn (and many reclamation passes) follow the death.
    faults::install(FaultPlan::default().with_one_shot(FaultSite::ThreadDeath, 25));
    let smr = with_deadline(name, Duration::from_secs(60), || {
        churn_lifecycle::<S>(4_000, true)
    });
    assert_eq!(
        faults::injected(FaultSite::ThreadDeath),
        1,
        "{name}: exactly one worker must have been killed"
    );
    faults::clear();
    let s = smr.stats().snapshot();
    assert!(
        s.participants_reaped >= 1,
        "{name}: the dead participant must be reaped: {s:?}"
    );
    // Under the membarrier publish mode — which HPAsym always runs where
    // the host has membarrier — there are no per-peer waits, so no
    // watchdog expiries: death detection rides the periodic registry probe
    // instead, and `participants_reaped` above is the whole contract.
    let membarrier = chaos_cfg().resolved_publish_mode()
        == pop::smr::config::PublishMode::Membarrier
        || (S::NAME == "HPAsym" && pop::runtime::membarrier::is_available());
    if !membarrier {
        assert!(
            s.publish_wait_timeouts >= 1,
            "{name}: death detection rides the pass watchdog: {s:?}"
        );
    }
    assert_eq!(
        s.unreclaimed_nodes(),
        0,
        "{name}: survivors must free the reaped thread's retire blocks"
    );
    assert_conservation(&*smr);
}

#[cfg(feature = "fault-injection")]
mod killed_writer {
    use super::*;

    #[test]
    fn hazard_ptr_pop() {
        run_killed_writer_trial::<HazardPtrPop>("killed_writer/HazardPtrPop");
    }

    #[test]
    fn hazard_era_pop() {
        run_killed_writer_trial::<HazardEraPop>("killed_writer/HazardEraPop");
    }

    #[test]
    fn epoch_pop() {
        run_killed_writer_trial::<EpochPop>("killed_writer/EpochPop");
    }

    #[test]
    fn nbr_plus() {
        run_killed_writer_trial::<NbrPlus>("killed_writer/NbrPlus");
    }

    #[test]
    fn hazard_ptr_asym() {
        run_killed_writer_trial::<HazardPtrAsym>("killed_writer/HazardPtrAsym");
    }
}

// ---------------------------------------------------------------------
// Panic-during-op matrix (runs with or without fault injection).
// ---------------------------------------------------------------------

/// A writer panics while inside an [`OpGuard`] bracket; the unwind must run
/// the operation epilogue (guard drop) and the registration teardown, so
/// surviving threads' reclamation never waits on the abandoned operation
/// and the panicker's partial fill bins are orphaned, not leaked.
fn run_panic_mid_op_trial<S: Smr>(name: &'static str) {
    let _g = plan_lock();
    faults::install(Default::default()); // disarm any leftover plan
    let smr = S::new(chaos_cfg());
    let map = Arc::new(HmList::with_domain(Arc::clone(&smr)));

    // Phase 1: the writer panics mid-op with the registration still held —
    // both unwind through their Drop impls (guard first, registration
    // last, mirroring construction order).
    let panicker = std::thread::spawn({
        let map = Arc::clone(&map);
        let smr = Arc::clone(&smr);
        move || {
            let _reg = smr.register(1);
            let mut k = 1u64;
            for _ in 0..500 {
                map.insert(1, k % KEYS, k);
                map.remove(1, k % KEYS);
                k = k.wrapping_add(7);
            }
            let _op = OpGuard::enter(&*smr, 1);
            panic!("injected: writer dies mid-operation");
        }
    });
    assert!(
        panicker.join().is_err(),
        "{name}: the writer must have panicked"
    );

    // Phase 2: a survivor churns and drains under a deadline — if the
    // abandoned op had leaked its bracket, signal-based schemes would
    // wait on tid 1 forever.
    let trial = with_deadline(name, Duration::from_secs(30), move || {
        let reg = smr.register(0);
        let mut k = 0u64;
        for _ in 0..2_000 {
            map.insert(0, k % KEYS, k);
            map.remove(0, k % KEYS);
            k = k.wrapping_add(7);
        }
        smr.flush(0);
        drop(reg);
        smr
    });
    let s = trial.stats().snapshot();
    if S::NAME == NoReclaim::NAME {
        // NR's whole point is the leak: unwinding must not make it free.
        assert_eq!(s.freed_nodes, 0, "{name}: NR must never free");
    } else {
        assert_eq!(
            s.unreclaimed_nodes(),
            0,
            "{name}: panicker's retires must be reclaimed, not leaked"
        );
    }
    assert_conservation(&*trial);
}

/// Same shape, but the panic is caught in-thread (a worker that recovers):
/// after `catch_unwind` the thread must be able to keep using its
/// registration — the guard restored the scheme to a quiescent state.
fn run_panic_recover_trial<S: Smr>(name: &'static str) {
    let _g = plan_lock();
    faults::install(Default::default());
    let smr = S::new(chaos_cfg());
    let map = Arc::new(HmList::with_domain(Arc::clone(&smr)));
    let reg = smr.register(0);
    let caught = catch_unwind(AssertUnwindSafe(|| {
        let _op = OpGuard::enter(&*smr, 0);
        panic!("injected: recoverable mid-op panic");
    }));
    assert!(caught.is_err());
    // The same tid keeps working after recovery.
    let mut k = 0u64;
    for _ in 0..1_000 {
        map.insert(0, k % KEYS, k);
        map.remove(0, k % KEYS);
        k = k.wrapping_add(7);
    }
    smr.flush(0);
    drop(reg);
    let s = smr.stats().snapshot();
    if S::NAME == NoReclaim::NAME {
        assert_eq!(s.freed_nodes, 0, "{name}: NR must never free");
    } else {
        assert_eq!(
            s.unreclaimed_nodes(),
            0,
            "{name}: recovered thread must drain its own garbage"
        );
    }
    assert_conservation(&*smr);
}

macro_rules! panic_matrix {
    ($($scheme:ident),+ $(,)?) => {
        mod panic_mid_op {
            use super::*;
            $(
                #[test]
                #[allow(non_snake_case)]
                fn $scheme() {
                    run_panic_mid_op_trial::<$scheme>(
                        concat!("panic_mid_op/", stringify!($scheme)),
                    );
                }
            )+
        }
        mod panic_recover {
            use super::*;
            $(
                #[test]
                #[allow(non_snake_case)]
                fn $scheme() {
                    run_panic_recover_trial::<$scheme>(
                        concat!("panic_recover/", stringify!($scheme)),
                    );
                }
            )+
        }
    };
}

panic_matrix!(
    HazardPtrPop,
    HazardEraPop,
    EpochPop,
    HazardPtrAsym,
    NbrPlus,
    Ebr,
    HazardPtr,
    HazardEra,
    Ibr,
    Hyaline,
    NoReclaim,
    Vbr,
);

// ---------------------------------------------------------------------
// Stalled-reader pressure ladder (epoch/era schemes). Runs in every
// configuration: the stall is a real reader parked inside an operation,
// not an injected fault.
// ---------------------------------------------------------------------

/// Raw node for the direct-retire pressure trial — the map-based churn
/// cannot control birth eras precisely enough to build a backlog that is
/// *provably* pinned by one reader.
#[repr(C)]
struct PNode {
    hdr: Header,
    _v: u64,
}
unsafe impl HasHeader for PNode {}

fn alloc_node<S: Smr>(smr: &S, tid: usize, v: u64) -> *mut PNode {
    smr.note_alloc(tid, core::mem::size_of::<PNode>());
    Box::into_raw(Box::new(PNode {
        hdr: Header::new(smr.current_era(), core::mem::size_of::<PNode>()),
        _v: v,
    }))
}

/// What [`stalled_reader_trial`] observed.
struct StallOutcome {
    cfg: SmrConfig,
    /// Largest `unreclaimed_nodes()` after any retire under the stall.
    peak: u64,
    /// After the churn and a flush, stall still live.
    mid: StatsSnapshot,
    mid_count: u64,
    mid_quar: u64,
    wm: u64,
    /// After the stall cleared and one more flush.
    fin: StatsSnapshot,
    fin_count: u64,
    fin_quar: u64,
    fin_rung: PressureRung,
}

/// The stalled-reader trial under tight watermarks (64, 96, 128 nodes at
/// `reclaim_freq` 16). One reader pins the current epoch/era and stalls;
/// the writer retires a backlog born before the pin (so its lifespans
/// intersect the pinned era no matter how far the clock advances) and
/// keeps churning, then flushes; the stall clears and the writer flushes
/// once more.
fn stalled_reader_trial<S: Smr>(name: &'static str) -> StallOutcome {
    let _g = plan_lock();
    faults::install(Default::default());
    with_deadline(name, Duration::from_secs(60), move || {
        let cfg = SmrConfig::for_tests(2)
            .with_reclaim_freq(16)
            .with_retire_batch(1)
            .with_pressure_watermarks(64, 96, 128)
            .with_quarantine();
        let smr = S::new(cfg.clone());
        let reg0 = smr.register(0);
        // Born before the reader pins: pinned for the whole stall.
        let victims: Vec<*mut PNode> = (0..600).map(|i| alloc_node(&*smr, 0, i)).collect();
        let hot = alloc_node(&*smr, 0, u64::MAX);
        let src = Arc::new(AtomicPtr::new(hot));
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                let _ = smr.protect(1, 0, &src);
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                smr.end_op(1);
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        // Retire the pinned backlog, then churn fresh nodes so passes
        // keep coming and the stall tracker keeps observing.
        let fresh = (0..400u64).map(|i| alloc_node(&*smr, 0, i));
        let mut peak = 0;
        for p in victims.into_iter().chain(fresh) {
            unsafe { retire_node(&*smr, 0, p) };
            peak = peak.max(smr.stats().unreclaimed_nodes());
        }
        smr.flush(0);
        let g = smr.stats().pressure();
        let mid = smr.stats().snapshot();
        let (mid_count, mid_quar, wm) = (g.count(), g.quarantined(), g.emergency_watermark());
        // Clear the stall: the reader leaves its op and unregisters.
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        // One pass: released quarantine blocks rejoin the caller's
        // list and the same sweep re-filters (now against no
        // reservations at all) and frees.
        smr.flush(0);
        let fin = smr.stats().snapshot();
        let (fin_count, fin_quar, fin_rung) = (g.count(), g.quarantined(), g.rung());
        drop(reg0);
        StallOutcome {
            cfg,
            peak,
            mid,
            mid_count,
            mid_quar,
            wm,
            fin,
            fin_count,
            fin_quar,
            fin_rung,
        }
    })
}

/// The bounded-garbage acceptance trial for the ladder schemes. The
/// gauge must climb the whole ladder (soft → hard → emergency trips), the
/// emergency rung must park the pinned blocks in quarantine — keeping the
/// *actionable* count below the emergency watermark while the stall
/// persists — and the entire backlog must drain within one pass of the
/// stall clearing.
fn run_stalled_reader_pressure_trial<S: Smr>(name: &'static str) {
    let StallOutcome {
        mid,
        mid_count,
        mid_quar,
        wm,
        fin,
        fin_count,
        fin_quar,
        fin_rung,
        ..
    } = stalled_reader_trial::<S>(name);
    assert!(
        mid.pressure_soft_trips >= 1 && mid.pressure_hard_trips >= 1,
        "{name}: the backlog must climb through soft and hard: {mid:?}"
    );
    assert!(
        mid.pressure_emergency_trips >= 1,
        "{name}: the emergency watermark must trip: {mid:?}"
    );
    assert!(
        mid.blocks_quarantined >= 1 && mid_quar > 0,
        "{name}: the emergency rung must park pinned blocks: {mid:?}"
    );
    assert!(
        mid.unreclaimed_nodes() > 0,
        "{name}: the pinned backlog must be parked, never freed under a live stall"
    );
    assert!(
        mid_count < wm,
        "{name}: actionable garbage ({mid_count}) must stay below the emergency \
         watermark ({wm}) while quarantine absorbs the pinned backlog"
    );
    assert_eq!(
        fin.unreclaimed_nodes(),
        0,
        "{name}: everything drains within one pass of the stall clearing"
    );
    assert_eq!(
        fin.blocks_unquarantined, fin.blocks_quarantined,
        "{name}: every parked block must be released"
    );
    assert_eq!(
        (fin_count, fin_quar),
        (0, 0),
        "{name}: the gauge drains to zero"
    );
    assert_eq!(
        fin_rung,
        PressureRung::Normal,
        "{name}: the rung settles back to Normal"
    );
    assert!(
        fin.freed_nodes <= fin.retired_nodes && fin.retired_nodes <= fin.allocated_nodes,
        "{name}: conservation violated: {fin:?}"
    );
}

/// EpochPOP's row of the pressure trial: the same stall, but the scheme's
/// own escalation holds the backlog under the soft watermark, so the
/// ladder never engages. Every `reclaim_freq` retires, the trigger's epoch
/// pass frees nothing behind the parked reader and the escalation frees
/// everything but its reservation: the backlog stays within
/// `reclaim_freq + N × H` (+ one block of seal slack) and drains to zero
/// once the stall clears.
fn run_epoch_pop_stall_trial(name: &'static str) {
    let StallOutcome {
        cfg,
        peak,
        mid,
        fin,
        ..
    } = stalled_reader_trial::<EpochPop>(name);
    assert_eq!(
        (
            mid.pressure_soft_trips,
            mid.pressure_hard_trips,
            mid.pressure_emergency_trips
        ),
        (0, 0, 0),
        "{name}: the escalation must keep the ladder idle: {mid:?}"
    );
    assert!(
        mid.pop_passes >= 1,
        "{name}: the stall must escalate: {mid:?}"
    );
    let bound = (cfg.reclaim_freq + cfg.max_threads * cfg.slots + cfg.effective_batch()) as u64;
    assert!(
        peak <= bound,
        "{name}: {peak} unreclaimed under the stall, over {bound}"
    );
    assert_eq!(
        fin.unreclaimed_nodes(),
        0,
        "{name}: drains once the stall clears"
    );
    assert!(
        fin.freed_nodes <= fin.retired_nodes && fin.retired_nodes <= fin.allocated_nodes,
        "{name}: conservation violated: {fin:?}"
    );
}

macro_rules! pressure_trials {
    ($($scheme:ident => $trial:expr),+ $(,)?) => {
        mod stalled_reader_pressure {
            use super::*;
            $(
                #[test]
                #[allow(non_snake_case)]
                fn $scheme() {
                    $trial(concat!("stalled_reader_pressure/", stringify!($scheme)));
                }
            )+
        }
    };
}

pressure_trials!(
    Ebr => run_stalled_reader_pressure_trial::<Ebr>,
    EpochPop => run_epoch_pop_stall_trial,
    Ibr => run_stalled_reader_pressure_trial::<Ibr>,
    HazardEra => run_stalled_reader_pressure_trial::<HazardEra>,
    HazardEraPop => run_stalled_reader_pressure_trial::<HazardEraPop>,
);

/// ISSUE 10 satellite: VBR's quarantine rung is a **documented no-op**.
/// The scheme's pass never hands the sweep a relaxed floor, so nothing is
/// ever parked by construction — a
/// stalled reader's stale announcement pins garbage only until the
/// reader's next read (which version-aborts and re-announces) or its exit,
/// so there is no per-block blocker to park against. The pressure ladder
/// still climbs (soft → hard → emergency trips fire), but `blocks_quarantined`
/// must stay zero under a live stall, and the whole backlog must drain
/// within one pass of the stall clearing.
#[test]
fn vbr_quarantine_rung_is_a_no_op() {
    let _g = plan_lock();
    faults::install(Default::default());
    with_deadline("vbr_quarantine_no_op", Duration::from_secs(60), || {
        let smr = Vbr::new(
            SmrConfig::for_tests(2)
                .with_reclaim_freq(16)
                .with_retire_batch(1)
                .with_pressure_watermarks(64, 96, 128)
                .with_quarantine(),
        );
        let reg0 = smr.register(0);
        let hot = alloc_node(&*smr, 0, u64::MAX);
        let src = Arc::new(AtomicPtr::new(hot));
        let hold = Arc::new(AtomicBool::new(true));
        let (tx, rx) = mpsc::channel();
        let reader = std::thread::spawn({
            let smr = Arc::clone(&smr);
            let src = Arc::clone(&src);
            let hold = Arc::clone(&hold);
            move || {
                let reg1 = smr.register(1);
                smr.begin_op(1);
                let _ = smr.protect(1, 0, &src);
                tx.send(()).unwrap();
                while hold.load(Ordering::Acquire) {
                    std::hint::spin_loop();
                }
                smr.end_op(1);
                drop(reg1);
            }
        });
        rx.recv().unwrap();
        // Churn a backlog the parked announcement pins: every retire era
        // is >= the version the reader announced, so no sweep may free it
        // while the reader sits in-op.
        for i in 0..2_000u64 {
            let p = alloc_node(&*smr, 0, i);
            unsafe { retire_node(&*smr, 0, p) };
        }
        smr.flush(0);
        let mid = smr.stats().snapshot();
        assert!(
            mid.pressure_emergency_trips >= 1,
            "the ladder must reach the emergency rung: {mid:?}"
        );
        assert_eq!(
            mid.blocks_quarantined, 0,
            "VBR's quarantine rung is a no-op by construction: {mid:?}"
        );
        assert!(
            mid.unreclaimed_nodes() > 0,
            "the stalled announcement must pin the backlog: {mid:?}"
        );
        // Clear the stall: the reader's exit goes quiescent and unpins
        // everything — one forced pass drains the whole backlog.
        hold.store(false, Ordering::Release);
        reader.join().unwrap();
        src.store(core::ptr::null_mut(), Ordering::SeqCst);
        unsafe { retire_node(&*smr, 0, hot) };
        smr.flush(0);
        let fin = smr.stats().snapshot();
        assert_eq!(
            fin.unreclaimed_nodes(),
            0,
            "everything drains within one pass of the stall clearing: {fin:?}"
        );
        assert_eq!(
            fin.blocks_quarantined, 0,
            "no block was ever parked: {fin:?}"
        );
        drop(reg0);
    });
}
