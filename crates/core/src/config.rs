//! Reclamation-domain configuration.

use crate::header::RETIRE_BATCH_CAP;

/// Default publish-wait deadline (1 s wall clock, total per reclamation
/// pass). Generous enough that a merely descheduled peer on an
/// oversubscribed host publishes long before it; the deadline exists for
/// peers that will *never* publish (died without deregistering, signal
/// lost), where the watchdog falls back to conservative snapshots.
pub const DEFAULT_PUBLISH_DEADLINE_NS: u64 = 1_000_000_000;

/// How a POP reclaimer gets peers' reservations published before it scans
/// them (the publish half of `ping_all_and_wait`): the signal fan-out,
/// whose waits spin until each pinged peer has published, or one
/// `membarrier(2)` heavy barrier that has nothing to wait for. See
/// `ARCHITECTURE.md` ("Publish modes") for the per-scheme decision table.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum PublishMode {
    /// Signal fan-out: ping each non-quiescent peer and spin (yielding
    /// every 1 024 rounds) until it has published — the default. The name
    /// is that of the futex park the wait used to end in; it stays because
    /// `POP_PUBLISH_MODE=futex` and benchmark metadata spell it so.
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
/// threshold that triggers a reclamation pass (Alg. 1 line 1), counted
/// per domain. It is also EpochPOP's escalation threshold: Alg. 3 line
/// 26's condition is "the epoch pass kept `reclaim_freq` or more of the
/// nodes it took", so there is no multiplier `C` to set. Alg. 3 line 1's epoch period is not a
/// setting either: the epoch (and the hazard-era clock) ticks at every
/// seal of a retire block and at every pass.
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
///     .with_retire_batch(16)
///     .with_publish_deadline_ns(50_000_000);
/// assert_eq!(cfg.effective_batch(), 16);
/// assert_eq!(cfg.publish_deadline_ns, 50_000_000);
/// ```
///
/// # `POP_*` environment overrides
///
/// [`SmrConfig::for_threads`] and [`SmrConfig::for_tests`] apply the
/// environment overrides after the defaults, which is how the CI
/// fallback-path and fault matrices drive the whole test suite through
/// each switch without touching a call site. These four are the only
/// variables the library reads:
///
/// | variable                  | effect                                       |
/// |---------------------------|----------------------------------------------|
/// | `POP_RETIRE_BATCH`        | seal threshold (`1` = unbatched retirement)  |
/// | `POP_PUBLISH_DEADLINE_MS` | publish-wait deadline per pass (`0` = off)   |
/// | `POP_PUBLISH_MODE`        | `futex` (signal fan-out) / `membarrier`      |
/// | `POP_FAULTS`              | fault plan (needs the `fault-injection` feature; parsed by `pop_runtime::faults`) |
///
/// ```
/// use pop_core::{PublishMode, SmrConfig};
///
/// std::env::set_var("POP_RETIRE_BATCH", "1");
/// std::env::set_var("POP_PUBLISH_DEADLINE_MS", "50");
/// std::env::set_var("POP_PUBLISH_MODE", "membarrier");
/// let cfg = SmrConfig::for_tests(2);
/// assert_eq!(cfg.retire_batch, 1);
/// assert_eq!(cfg.publish_deadline_ns, 50_000_000);
/// assert_eq!(cfg.publish_mode, PublishMode::Membarrier);
///
/// // Unset (or unparsable) variables leave the defaults alone.
/// for k in ["POP_RETIRE_BATCH", "POP_PUBLISH_DEADLINE_MS", "POP_PUBLISH_MODE"] {
///     std::env::remove_var(k);
/// }
/// let cfg = SmrConfig::for_tests(2);
/// assert!(cfg.retire_batch > 1);
/// assert_eq!(cfg.publish_mode, PublishMode::Futex, "the default");
/// ```
#[derive(Clone, Debug)]
pub struct SmrConfig {
    /// Number of domain-local thread ids (`tid` in `0..max_threads`).
    pub max_threads: usize,
    /// Hazard-slot count per thread (`MAX_HP`). Lists need 3, trees 4; the
    /// default leaves headroom for user structures.
    pub slots: usize,
    /// Retires that trigger a reclamation pass, **per domain**: a pass
    /// falls due each time the nodes sealed by all threads together cross
    /// a multiple of it, and takes every sealed block in the domain. The
    /// paper uses 24 576 for all schemes (§5.0.1), there per thread. For
    /// EpochPOP it is also the escalation threshold: a triggered epoch pass
    /// that keeps this many of the nodes it took indicates a delayed
    /// thread and engages publish-on-ping, and what it keeps below that
    /// counts toward the next trigger.
    pub reclaim_freq: usize,
    /// Retirement-batch seal threshold: `retire` fills thread-private
    /// blocks (a fixed set of fill bins, routed by the node's slab) and
    /// seals a block into the domain's retire pool once it holds
    /// `retire_batch` nodes, amortizing the stats update and the trigger
    /// count.
    /// Clamped to `1..=RETIRE_BATCH_CAP` and never above `reclaim_freq`
    /// (so small thresholds still reclaim on time). `1` disables batching
    /// and makes every seal and trigger point exact.
    pub retire_batch: usize,
    /// Publish-wait watchdog deadline in nanoseconds, *total wall clock per
    /// reclamation pass* (`ping_all_and_wait`, NBR phase 2). The waits
    /// spin and never park; the deadline is armed at a wait's first clock
    /// read. A peer that has not answered when it expires is handled
    /// conservatively — POP unions its private words into the scan, NBR+
    /// frees nothing (correct-by-keep) — the pass completes, and the peer
    /// is probed for death and reaped if gone. Later passes that find the
    /// peer unmoved skip its wait, so a stuck peer costs one deadline, not
    /// one per pass. `0` disables the watchdog (waits are unbounded).
    pub publish_deadline_ns: u64,
    /// Testing mode: freed nodes are poisoned and quarantined instead of
    /// deallocated, turning any use-after-free into a deterministic panic
    /// inside `protect`.
    pub quarantine: bool,
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
        SmrConfig {
            max_threads: n,
            slots: 8,
            reclaim_freq: 24_576,
            retire_batch: RETIRE_BATCH_CAP,
            publish_deadline_ns: DEFAULT_PUBLISH_DEADLINE_NS,
            quarantine: false,
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
            ..Self::paper_defaults(n)
        }
    }

    /// Test defaults (small thresholds) plus the `POP_*` env overrides, so the CI
    /// fallback-path matrix drives every test through one switch.
    pub fn for_tests(n: usize) -> Self {
        Self::test_defaults(n).with_env_overrides()
    }

    /// Applies the `POP_*` environment overrides (CI's fallback-path
    /// matrix legs run the test suite with `POP_RETIRE_BATCH=1` and
    /// `POP_PUBLISH_MODE=membarrier` without touching any call site). Unset or unparsable variables change nothing.
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
        if let Some(ms) = get("POP_PUBLISH_DEADLINE_MS").and_then(|v| v.parse::<u64>().ok()) {
            self.publish_deadline_ns = ms.saturating_mul(1_000_000);
        }
        if let Some(m) = get("POP_PUBLISH_MODE").and_then(|v| PublishMode::parse(&v)) {
            self = self.with_publish_mode(m);
        }
        self
    }

    /// Builder-style override of the retire-list threshold (and with it
    /// EpochPOP's escalation threshold).
    pub fn with_reclaim_freq(mut self, f: usize) -> Self {
        self.reclaim_freq = f.max(1);
        self
    }

    /// Builder-style override of the per-thread hazard slot count.
    pub fn with_slots(mut self, s: usize) -> Self {
        self.slots = s.max(1);
        self
    }

    /// Builder-style override of the publish-wait watchdog deadline
    /// (nanoseconds of wall clock per reclamation pass; `0` disables the
    /// watchdog and restores unbounded waits).
    pub fn with_publish_deadline_ns(mut self, ns: u64) -> Self {
        self.publish_deadline_ns = ns;
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

    /// Does nothing: the pressure watermarks are gone. Kept only because
    /// popbench's `adapter.rs` (`benchmark/src/adapter.rs`, `config()`)
    /// still calls it; the next benchmark change drops that call.
    #[doc(hidden)]
    pub fn with_pressure_watermarks(self, _soft: usize, _hard: usize, _emergency: usize) -> Self {
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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SmrConfig::paper_defaults(4);
        assert_eq!(c.reclaim_freq, 24_576, "paper §5.0.1 retire threshold");
        assert_eq!(c.max_threads, 4);
        assert!(!c.quarantine);
    }

    #[test]
    fn builders_clamp_to_one() {
        let c = SmrConfig::test_defaults(1)
            .with_reclaim_freq(0)
            .with_slots(0)
            .with_retire_batch(0);
        assert_eq!(c.reclaim_freq, 1);
        assert_eq!(c.slots, 1);
        assert_eq!(c.retire_batch, 1);
    }

    #[test]
    fn env_overrides_drive_the_fallback_matrix() {
        let c = SmrConfig::test_defaults(2)
            .with_overrides_from(|k| (k == "POP_RETIRE_BATCH").then(|| "1".to_string()));
        assert_eq!(c.retire_batch, 1);
        // Unset / garbage values leave the defaults alone.
        let c = SmrConfig::test_defaults(2)
            .with_overrides_from(|k| (k == "POP_RETIRE_BATCH").then(|| "few".to_string()));
        assert_eq!(c.retire_batch, RETIRE_BATCH_CAP);
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
