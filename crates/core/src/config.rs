//! Reclamation-domain configuration.

use crate::header::RETIRE_BATCH_CAP;
use crate::pressure::PressureGauge;

/// Default publish-wait spin budget (the historical hard-coded
/// `SPIN_LIMIT`): roughly the cost of a few cache-miss round trips, enough
/// for a running peer's handler to publish before the waiter parks.
pub const DEFAULT_PUBLISH_SPIN: u32 = 128;

/// Default publish-wait deadline (1 s wall clock, total per reclamation
/// pass). Generous enough that a merely descheduled peer on an
/// oversubscribed host publishes long before it; the deadline exists for
/// peers that will *never* publish (died without deregistering, signal
/// lost), where the watchdog falls back to conservative snapshots.
pub const DEFAULT_PUBLISH_DEADLINE_NS: u64 = 1_000_000_000;

/// Default soft pressure watermark, as a multiple of `reclaim_freq`: a
/// backlog of 8 full reclaim triggers' worth of garbage means passes are
/// consistently failing to free — stop decaying the cadence.
pub const PRESSURE_SOFT_FACTOR: usize = 8;

/// Default hard pressure watermark factor (see [`PRESSURE_SOFT_FACTOR`]).
pub const PRESSURE_HARD_FACTOR: usize = 16;

/// Default emergency pressure watermark factor (see
/// [`PRESSURE_SOFT_FACTOR`]).
pub const PRESSURE_EMERGENCY_FACTOR: usize = 32;

/// Default cap on each thread's recycled retire-block free pool, in
/// blocks. A pool this size absorbs every steady-state sweep's recycling
/// without allocator traffic; bursty retire storms that grow past it are
/// trimmed back at the next sweep instead of holding the high-water mark
/// forever.
pub const DEFAULT_FREE_POOL_CAP: usize = 32;

/// How a POP reclaimer gets peers' reservations published before it scans
/// them (the publish half of `ping_all_and_wait`): the signal fan-out,
/// whose waits spin and then park on a futex, or one `membarrier(2)` heavy
/// barrier that has nothing to wait for. See `ARCHITECTURE.md` ("Publish
/// modes") for the per-scheme decision table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PublishMode {
    /// Signal fan-out: ping each non-quiescent peer, spin, then park on its
    /// publish word (`pop_runtime::futex`, which yields off Linux) until it
    /// has published — the default.
    #[default]
    Futex,
    /// One process-wide `membarrier(2)` barrier per pass: readers write
    /// reservations straight to their shared slots with plain stores, the
    /// reclaimer's barrier makes them visible, and there is no per-peer
    /// signaling or waiting at all. Falls back to the signal fan-out when
    /// the probe fails (seccomp/containers) or a barrier fails mid-pass.
    Membarrier,
}

impl PublishMode {
    /// Parses the `POP_PUBLISH_MODE` vocabulary.
    pub fn parse(s: &str) -> Option<PublishMode> {
        match s.to_ascii_lowercase().as_str() {
            "futex" => Some(PublishMode::Futex),
            "membarrier" => Some(PublishMode::Membarrier),
            _ => None,
        }
    }
}

/// Tuning knobs shared by every reclamation scheme.
///
/// Field names follow the paper's pseudocode: `reclaim_freq` is the retire
/// list threshold that triggers a reclamation pass (Alg. 1 line 1),
/// `epoch_freq` the operations-per-epoch-advance period of the epoch-based
/// schemes (Alg. 3 line 1), and `pop_c` the multiplier `C` after which
/// EpochPOP escalates from epoch reclamation to publish-on-ping
/// (Alg. 3 line 26).
///
/// # Builders
///
/// Every knob has a `with_*` builder; out-of-range values are clamped,
/// never rejected:
///
/// ```
/// use pop_core::SmrConfig;
///
/// let cfg = SmrConfig::for_threads(8)
///     .with_reclaim_freq(1024)
///     .with_epoch_freq(32)
///     .with_retire_batch(16)
///     .with_publish_spin(64)
///     .with_adaptive(false);
/// assert_eq!(cfg.effective_batch(), 16);
/// assert!(!cfg.adaptive);
/// ```
///
/// # `POP_*` environment overrides
///
/// [`SmrConfig::for_threads`] and [`SmrConfig::for_tests`] apply the
/// environment overrides after the defaults, which is how the CI
/// fallback-path and fault matrices drive the whole test suite through
/// each switch without touching a call site:
///
/// | variable                  | effect                                       |
/// |---------------------------|----------------------------------------------|
/// | `POP_RETIRE_BATCH`        | seal threshold (`1` = unbatched retirement)  |
/// | `POP_ADAPTIVE`            | `0`/`off` = no epoch-cadence decay           |
/// | `POP_PUBLISH_DEADLINE_MS` | publish-wait watchdog deadline (`0` = off)   |
/// | `POP_PRESSURE_SOFT`       | soft pressure watermark in nodes (`0` = gauge off) |
/// | `POP_PRESSURE_HARD`       | hard pressure watermark in nodes             |
/// | `POP_PRESSURE_EMERGENCY`  | emergency pressure watermark in nodes        |
/// | `POP_FREE_POOL_CAP`       | recycled-block pool cap in blocks (`0` = unbounded) |
/// | `POP_PUBLISH_MODE`        | POP publish mode: `futex` / `membarrier`     |
/// | `POP_FAULTS`              | fault plan (needs the `fault-injection` feature; parsed by `pop_runtime::faults`) |
///
/// ```
/// use pop_core::{PublishMode, SmrConfig};
///
/// std::env::set_var("POP_RETIRE_BATCH", "1");
/// std::env::set_var("POP_ADAPTIVE", "0");
/// std::env::set_var("POP_PRESSURE_SOFT", "128");
/// std::env::set_var("POP_PRESSURE_HARD", "256");
/// std::env::set_var("POP_PRESSURE_EMERGENCY", "512");
/// std::env::set_var("POP_FREE_POOL_CAP", "4");
/// std::env::set_var("POP_PUBLISH_MODE", "membarrier");
/// let cfg = SmrConfig::for_tests(2);
/// assert_eq!(cfg.retire_batch, 1);
/// assert!(!cfg.adaptive);
/// assert_eq!(
///     (cfg.pressure_soft, cfg.pressure_hard, cfg.pressure_emergency),
///     (128, 256, 512)
/// );
/// assert_eq!(cfg.free_pool_cap, 4);
/// assert_eq!(cfg.publish_mode, PublishMode::Membarrier);
///
/// // Unset (or unparsable) variables leave the defaults alone.
/// for k in [
///     "POP_RETIRE_BATCH", "POP_ADAPTIVE", "POP_PRESSURE_SOFT",
///     "POP_PRESSURE_HARD", "POP_PRESSURE_EMERGENCY", "POP_FREE_POOL_CAP",
///     "POP_PUBLISH_MODE",
/// ] {
///     std::env::remove_var(k);
/// }
/// let cfg = SmrConfig::for_tests(2);
/// assert!(cfg.retire_batch > 1);
/// assert!(cfg.adaptive);
/// assert!(cfg.pressure_soft > 0, "the gauge is on by default");
/// assert_eq!(cfg.publish_mode, PublishMode::Futex, "the default");
/// ```
#[derive(Clone, Debug)]
pub struct SmrConfig {
    /// Number of domain-local thread ids (`tid` in `0..max_threads`).
    pub max_threads: usize,
    /// Hazard-slot count per thread (`MAX_HP`). Lists need 3, trees 4; the
    /// default leaves headroom for user structures.
    pub slots: usize,
    /// Retire-list length that triggers a reclamation event. The paper uses
    /// 24 576 for all schemes (§5.0.1).
    pub reclaim_freq: usize,
    /// Operations between global-epoch advances for EBR / EpochPOP / IBR.
    pub epoch_freq: usize,
    /// EpochPOP escalation multiplier `C`: after an epoch-mode reclaim pass,
    /// a retire list still longer than `pop_c * reclaim_freq` indicates a
    /// delayed thread and engages publish-on-ping.
    pub pop_c: usize,
    /// Retirement-batch seal threshold: `retire` fills thread-private
    /// blocks (a fixed set of fill bins, routed by the node's slab) and
    /// seals a block into the retire list once it holds `retire_batch`
    /// nodes, amortizing the stats update and the reclaim-threshold test.
    /// Clamped to `1..=RETIRE_BATCH_CAP` and never above `reclaim_freq`
    /// (so small thresholds still reclaim on time). `1` disables batching
    /// and makes every seal and trigger point exact.
    pub retire_batch: usize,
    /// Spins a publish wait (`ping_all_and_wait`, NBR phase 2) burns before
    /// parking on the target's publish word (`pop_runtime::futex`, which
    /// yields off Linux). Small values favor oversubscribed hosts; large
    /// values favor handlers that run within a cache-miss of the ping.
    pub publish_spin: u32,
    /// Publish-wait watchdog deadline in nanoseconds, *total wall clock per
    /// reclamation pass* (`ping_all_and_wait`, NBR phase 2). A peer that
    /// has not published when it expires is handled conservatively — its
    /// shared reservations are re-snapshotted as-is (correct-by-keep), the
    /// pass completes, and the peer is probed for death and reaped if gone.
    /// `0` disables the watchdog (waits are unbounded, the pre-PR-6
    /// behavior).
    pub publish_deadline_ns: u64,
    /// The per-domain adaptive controller (`pop_core::controller`): the
    /// epoch cadence of EBR, EpochPOP and IBR decays on barren passes and
    /// is instantly reset by the first freeing sweep. `false` pins it at
    /// `epoch_freq`.
    pub adaptive: bool,
    /// Testing mode: freed nodes are poisoned and quarantined instead of
    /// deallocated, turning any use-after-free into a deterministic panic
    /// inside `protect`.
    pub quarantine: bool,
    /// Soft pressure watermark in nodes: an actionable unreclaimed backlog
    /// (retired − freed − quarantined) at or above this cancels epoch-decay
    /// pacing and forces full passes. `0` disables the entire pressure
    /// gauge. Env `POP_PRESSURE_SOFT`.
    pub pressure_soft: usize,
    /// Hard pressure watermark in nodes: at or above this, `retire` calls
    /// reclaim synchronously (bounded retries) and re-ping suspect
    /// laggards. Normalized to at least `pressure_soft`. Env
    /// `POP_PRESSURE_HARD`.
    pub pressure_hard: usize,
    /// Emergency pressure watermark in nodes: at or above this, passes run
    /// per-participant stalled-reader detection and quarantine blocks
    /// provably pinned only by a stalled blocker. Normalized to at least
    /// `pressure_hard`. Env `POP_PRESSURE_EMERGENCY`.
    pub pressure_emergency: usize,
    /// Cap on each thread's recycled retire-block free pool, in blocks
    /// (`0` = unbounded, the historical behavior). Sweeps trim the pool
    /// back to this cap — and all the way to empty while the domain is at
    /// [`crate::pressure::PressureRung::Hard`] or above, so emergency
    /// pressure actually returns memory to the allocator. Env
    /// `POP_FREE_POOL_CAP`.
    pub free_pool_cap: usize,
    /// How POP reclaimers publish peers' reservations: the signal fan-out
    /// ([`PublishMode::Futex`]) or one process-wide
    /// [`PublishMode::Membarrier`] barrier per pass. Only the POP schemes
    /// consult this (HP-POP/HE-POP/Epoch-POP); NBR always keeps signals —
    /// its pings *neutralize* readers, which no memory barrier can do.
    /// Domains resolve it once at construction via
    /// [`Self::resolved_publish_mode`]. Env `POP_PUBLISH_MODE`
    /// (`futex`/`membarrier`).
    pub publish_mode: PublishMode,
}

impl SmrConfig {
    /// Paper-faithful defaults for `n` threads, before env overrides.
    fn paper_defaults(n: usize) -> Self {
        let reclaim_freq = 24_576;
        SmrConfig {
            max_threads: n,
            slots: 8,
            reclaim_freq,
            epoch_freq: 64,
            pop_c: 2,
            retire_batch: RETIRE_BATCH_CAP,
            publish_spin: DEFAULT_PUBLISH_SPIN,
            publish_deadline_ns: DEFAULT_PUBLISH_DEADLINE_NS,
            adaptive: true,
            quarantine: false,
            // The gauge defaults to enabled with generous watermarks: a
            // healthy workload never trips them (bench parity), a stalled
            // reader does. Scaled from the paper's retire threshold, not
            // re-derived by `with_reclaim_freq` — tests pin tiny
            // thresholds without entering pressure mode.
            pressure_soft: reclaim_freq * PRESSURE_SOFT_FACTOR,
            pressure_hard: reclaim_freq * PRESSURE_HARD_FACTOR,
            pressure_emergency: reclaim_freq * PRESSURE_EMERGENCY_FACTOR,
            free_pool_cap: DEFAULT_FREE_POOL_CAP,
            publish_mode: PublishMode::default(),
        }
    }

    /// Paper-faithful defaults for `n` threads.
    pub fn for_threads(n: usize) -> Self {
        Self::paper_defaults(n).with_env_overrides()
    }

    /// Test defaults before env overrides: small thresholds that force
    /// frequent reclamation, so every code path (ping, publish, scan,
    /// free) runs within a few hundred operations. Tests that *assert*
    /// defaults use this directly so they stay env-independent.
    fn test_defaults(n: usize) -> Self {
        SmrConfig {
            reclaim_freq: 64,
            epoch_freq: 4,
            ..Self::paper_defaults(n)
        }
    }

    /// Test defaults (small thresholds) plus the `POP_*` env overrides, so the CI
    /// fallback-path matrix drives every test through one switch.
    pub fn for_tests(n: usize) -> Self {
        Self::test_defaults(n).with_env_overrides()
    }

    /// Applies the `POP_*` environment overrides (CI's fallback-path
    /// matrix legs run the test suite with `POP_RETIRE_BATCH=1`,
    /// `POP_ADAPTIVE=0` and `POP_PUBLISH_MODE=membarrier` without touching
    /// any call site). Unset or unparsable variables change nothing.
    ///
    /// Also arms the fault-injection layer from `POP_FAULTS` (a no-op
    /// unless the `fault-injection` feature is compiled in): domain
    /// construction is the one chokepoint every harness passes through.
    fn with_env_overrides(self) -> Self {
        pop_runtime::faults::init_from_env();
        self.with_overrides_from(|k| std::env::var(k).ok())
    }

    /// Env-override core, parameterized over the lookup for testability.
    fn with_overrides_from(mut self, get: impl Fn(&str) -> Option<String>) -> Self {
        if let Some(b) = get("POP_RETIRE_BATCH").and_then(|v| v.parse().ok()) {
            self = self.with_retire_batch(b);
        }
        if let Some(v) = get("POP_ADAPTIVE") {
            match v.as_str() {
                "0" | "false" | "off" => self.adaptive = false,
                "1" | "true" | "on" => self.adaptive = true,
                _ => {}
            }
        }
        if let Some(ms) = get("POP_PUBLISH_DEADLINE_MS").and_then(|v| v.parse::<u64>().ok()) {
            self.publish_deadline_ns = ms.saturating_mul(1_000_000);
        }
        if let Some(n) = get("POP_PRESSURE_SOFT").and_then(|v| v.parse().ok()) {
            self.pressure_soft = n;
        }
        if let Some(n) = get("POP_PRESSURE_HARD").and_then(|v| v.parse().ok()) {
            self.pressure_hard = n;
        }
        if let Some(n) = get("POP_PRESSURE_EMERGENCY").and_then(|v| v.parse().ok()) {
            self.pressure_emergency = n;
        }
        if let Some(n) = get("POP_FREE_POOL_CAP").and_then(|v| v.parse().ok()) {
            self.free_pool_cap = n;
        }
        if let Some(m) = get("POP_PUBLISH_MODE").and_then(|v| PublishMode::parse(&v)) {
            self = self.with_publish_mode(m);
        }
        self
    }

    /// Builder-style override of the retire-list threshold.
    pub fn with_reclaim_freq(mut self, f: usize) -> Self {
        self.reclaim_freq = f.max(1);
        self
    }

    /// Builder-style override of the epoch advance period.
    pub fn with_epoch_freq(mut self, f: usize) -> Self {
        self.epoch_freq = f.max(1);
        self
    }

    /// Builder-style override of the EpochPOP escalation multiplier.
    pub fn with_pop_c(mut self, c: usize) -> Self {
        self.pop_c = c.max(1);
        self
    }

    /// Builder-style override of the per-thread hazard slot count.
    pub fn with_slots(mut self, s: usize) -> Self {
        self.slots = s.max(1);
        self
    }

    /// Builder-style override of the publish-wait spin budget.
    pub fn with_publish_spin(mut self, spins: u32) -> Self {
        self.publish_spin = spins;
        self
    }

    /// Builder-style override of the publish-wait watchdog deadline
    /// (nanoseconds of wall clock per reclamation pass; `0` disables the
    /// watchdog and restores unbounded waits).
    pub fn with_publish_deadline_ns(mut self, ns: u64) -> Self {
        self.publish_deadline_ns = ns;
        self
    }

    /// Builder-style toggle for the adaptive domain controller (epoch
    /// cadence decay). `false` pins the cadence at `epoch_freq`.
    pub fn with_adaptive(mut self, on: bool) -> Self {
        self.adaptive = on;
        self
    }

    /// Builder-style override of the retirement-batch seal threshold
    /// (clamped to `1..=RETIRE_BATCH_CAP`).
    pub fn with_retire_batch(mut self, b: usize) -> Self {
        self.retire_batch = b.clamp(1, RETIRE_BATCH_CAP);
        self
    }

    /// The seal threshold actually used by retire lists: the configured
    /// batch, never above `reclaim_freq` (a threshold the batch could
    /// otherwise straddle without ever triggering a pass).
    pub fn effective_batch(&self) -> usize {
        self.retire_batch
            .clamp(1, RETIRE_BATCH_CAP)
            .min(self.reclaim_freq.max(1))
    }

    /// Enables the quarantine use-after-free detector (tests only).
    pub fn with_quarantine(mut self) -> Self {
        self.quarantine = true;
        self
    }

    /// Builder-style override of the three pressure watermarks (in nodes
    /// of actionable unreclaimed backlog). `soft == 0` disables the gauge;
    /// the gauge normalizes `soft ≤ hard ≤ emergency` at construction.
    pub fn with_pressure_watermarks(mut self, soft: usize, hard: usize, emergency: usize) -> Self {
        self.pressure_soft = soft;
        self.pressure_hard = hard;
        self.pressure_emergency = emergency;
        self
    }

    /// Builder-style override of the recycled-block free-pool cap (in
    /// blocks; `0` = unbounded).
    pub fn with_free_pool_cap(mut self, cap: usize) -> Self {
        self.free_pool_cap = cap;
        self
    }

    /// Builder-style override of the POP publish mode.
    pub fn with_publish_mode(mut self, m: PublishMode) -> Self {
        self.publish_mode = m;
        self
    }

    /// Resolves [`Self::publish_mode`] against the host:
    /// [`PublishMode::Membarrier`] stays so exactly when the per-process
    /// `membarrier(2)` probe succeeds (`pop_runtime::membarrier::is_available`,
    /// which registers on first call), and otherwise downgrades to the
    /// signal fan-out — the seccomp/container fallback. Domains call this
    /// once at construction; a barrier failing *mid-pass* later is handled
    /// by `PopShared`'s sticky per-domain downgrade.
    pub fn resolved_publish_mode(&self) -> PublishMode {
        match self.publish_mode {
            PublishMode::Membarrier if pop_runtime::membarrier::is_available() => {
                PublishMode::Membarrier
            }
            _ => PublishMode::Futex,
        }
    }

    /// The [`PressureGauge`] this configuration describes (how `DomainBase`
    /// seeds its stats).
    pub fn pressure_gauge(&self) -> PressureGauge {
        PressureGauge::new(
            self.pressure_soft,
            self.pressure_hard,
            self.pressure_emergency,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SmrConfig::paper_defaults(4);
        assert_eq!(c.reclaim_freq, 24_576, "paper §5.0.1 retire threshold");
        assert_eq!(c.max_threads, 4);
        assert_eq!(c.publish_spin, DEFAULT_PUBLISH_SPIN);
        assert!(!c.quarantine);
    }

    #[test]
    fn publish_wait_builders() {
        let c = SmrConfig::test_defaults(1).with_publish_spin(0);
        assert_eq!(c.publish_spin, 0, "zero-spin (park immediately) is legal");
    }

    #[test]
    fn builders_clamp_to_one() {
        let c = SmrConfig::test_defaults(1)
            .with_reclaim_freq(0)
            .with_epoch_freq(0)
            .with_pop_c(0)
            .with_slots(0)
            .with_retire_batch(0);
        assert_eq!(c.reclaim_freq, 1);
        assert_eq!(c.epoch_freq, 1);
        assert_eq!(c.pop_c, 1);
        assert_eq!(c.slots, 1);
        assert_eq!(c.retire_batch, 1);
    }

    #[test]
    fn env_overrides_drive_the_fallback_matrix() {
        let env = |k: &str| match k {
            "POP_RETIRE_BATCH" => Some("1".to_string()),
            "POP_ADAPTIVE" => Some("0".to_string()),
            _ => None,
        };
        let c = SmrConfig::test_defaults(2).with_overrides_from(env);
        assert_eq!(c.retire_batch, 1);
        assert!(!c.adaptive);
        // Unset / garbage values leave the defaults alone.
        let c = SmrConfig::test_defaults(2)
            .with_overrides_from(|k| (k == "POP_ADAPTIVE").then(|| "maybe".to_string()));
        assert_eq!(c.retire_batch, RETIRE_BATCH_CAP);
        assert!(c.adaptive, "controller is on by default");
    }

    #[test]
    fn publish_deadline_default_builder_and_env() {
        let c = SmrConfig::test_defaults(1);
        assert_eq!(c.publish_deadline_ns, DEFAULT_PUBLISH_DEADLINE_NS);
        let c = c.with_publish_deadline_ns(0);
        assert_eq!(c.publish_deadline_ns, 0, "zero (watchdog off) is legal");
        let c = SmrConfig::test_defaults(1)
            .with_overrides_from(|k| (k == "POP_PUBLISH_DEADLINE_MS").then(|| "50".to_string()));
        assert_eq!(c.publish_deadline_ns, 50_000_000, "env override is in ms");
        let c = SmrConfig::test_defaults(1)
            .with_overrides_from(|k| (k == "POP_PUBLISH_DEADLINE_MS").then(|| "fast".to_string()));
        assert_eq!(
            c.publish_deadline_ns, DEFAULT_PUBLISH_DEADLINE_NS,
            "garbage leaves the default alone"
        );
    }

    #[test]
    fn pressure_defaults_builders_and_env() {
        let c = SmrConfig::test_defaults(1);
        assert_eq!(c.pressure_soft, 24_576 * PRESSURE_SOFT_FACTOR);
        assert_eq!(c.pressure_emergency, 24_576 * PRESSURE_EMERGENCY_FACTOR);
        assert_eq!(c.free_pool_cap, DEFAULT_FREE_POOL_CAP);
        assert!(c.pressure_gauge().enabled(), "gauge on by default");
        let c = c.with_pressure_watermarks(0, 0, 0);
        assert!(!c.pressure_gauge().enabled(), "soft 0 turns it off");
        let c = SmrConfig::test_defaults(1)
            .with_pressure_watermarks(10, 20, 40)
            .with_free_pool_cap(0);
        assert_eq!((c.pressure_soft, c.pressure_hard), (10, 20));
        assert_eq!(c.free_pool_cap, 0, "zero (unbounded pool) is legal");
        let c = SmrConfig::test_defaults(1).with_overrides_from(|k| match k {
            "POP_PRESSURE_SOFT" => Some("5".to_string()),
            "POP_PRESSURE_HARD" => Some("6".to_string()),
            "POP_PRESSURE_EMERGENCY" => Some("7".to_string()),
            "POP_FREE_POOL_CAP" => Some("2".to_string()),
            _ => None,
        });
        assert_eq!(
            (c.pressure_soft, c.pressure_hard, c.pressure_emergency),
            (5, 6, 7)
        );
        assert_eq!(c.free_pool_cap, 2);
        let c = SmrConfig::test_defaults(1)
            .with_overrides_from(|k| (k == "POP_PRESSURE_SOFT").then(|| "lots".to_string()));
        assert_eq!(
            c.pressure_soft,
            24_576 * PRESSURE_SOFT_FACTOR,
            "garbage leaves the default alone"
        );
    }

    #[test]
    fn publish_mode_parse_vocabulary() {
        assert_eq!(PublishMode::parse("FUTEX"), Some(PublishMode::Futex));
        assert_eq!(
            PublishMode::parse("Membarrier"),
            Some(PublishMode::Membarrier)
        );
        assert_eq!(PublishMode::parse("signal"), None);
    }

    #[test]
    fn publish_mode_env_override() {
        let c = SmrConfig::test_defaults(2)
            .with_overrides_from(|k| (k == "POP_PUBLISH_MODE").then(|| "membarrier".to_string()));
        assert_eq!(c.publish_mode, PublishMode::Membarrier);
        let c = SmrConfig::test_defaults(2)
            .with_overrides_from(|k| (k == "POP_PUBLISH_MODE").then(|| "sideways".to_string()));
        assert_eq!(
            c.publish_mode,
            PublishMode::Futex,
            "garbage leaves the default alone"
        );
    }

    #[test]
    fn resolved_mode_respects_the_host() {
        let explicit = SmrConfig::test_defaults(1)
            .with_publish_mode(PublishMode::Membarrier)
            .resolved_publish_mode();
        if pop_runtime::membarrier::is_available() {
            assert_eq!(explicit, PublishMode::Membarrier);
        } else {
            assert_eq!(explicit, PublishMode::Futex, "falls back to the fan-out");
        }
        assert_eq!(
            SmrConfig::test_defaults(1).resolved_publish_mode(),
            PublishMode::Futex
        );
    }

    #[test]
    fn effective_batch_never_straddles_the_threshold() {
        let c = SmrConfig::test_defaults(1).with_reclaim_freq(4);
        assert_eq!(c.effective_batch(), 4, "batch shrinks to reclaim_freq");
        let c = SmrConfig::test_defaults(1).with_reclaim_freq(1 << 20);
        assert_eq!(c.effective_batch(), RETIRE_BATCH_CAP);
        let c = SmrConfig::test_defaults(1).with_retire_batch(RETIRE_BATCH_CAP * 8);
        assert_eq!(c.retire_batch, RETIRE_BATCH_CAP, "clamped to block cap");
    }
}
