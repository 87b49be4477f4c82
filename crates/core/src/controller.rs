//! The per-domain **adaptive controller**: the feedback loop from sweep
//! outcomes back to the pass cadence.
//!
//! The paper's thesis is that reservations should cost nothing until a
//! reclaimer actually needs them. This module applies the same philosophy
//! to the *reclaimer's own* recurring cost, the epoch pass
//! ([`PassController`]): a pass whose sweep frees nothing is evidence the
//! domain is idle (everything pinned, or a trickle workload whose garbage
//! drains elsewhere). Consecutive barren passes exponentially decay the
//! pass cadence: only every `2^decay`-th trigger executes the full pass
//! body (clock advance, reservation scan, sweep); skipped triggers cost
//! one counter bump. Retire ticks are not thinned: they cost one clock
//! RMW. The decay is bounded ([`MAX_EPOCH_DECAY`]) and resets to zero the
//! moment any pass frees a block, so a domain that wakes up pays at most
//! `2^MAX_EPOCH_DECAY` thinned triggers of extra reclamation latency —
//! never a cliff. Skipping a sweep is always *safe*: epochs and
//! reservations only ever delay frees, never legalize them.
//!
//! The controller is advisory pacing: disabling it
//! (`SmrConfig::adaptive = false`, env `POP_ADAPTIVE=0`) runs every
//! triggered pass, which the CI fallback matrix exercises.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

use crate::pressure::PressureRung;
use crate::stats::ShardStats;

/// Decay ceiling: at most `2^MAX_EPOCH_DECAY` (= 16×) pass thinning.
/// Bounds the reclamation-latency cost of waking an idle domain to 16
/// thinned triggers.
pub const MAX_EPOCH_DECAY: u32 = 4;

/// Per-domain pass-cadence decay, shared by every reclaimer of the
/// domain (one cache line of state, touched only on pass paths).
///
/// The state machine is deliberately tiny: a bounded decay level that
/// consecutive barren passes deepen and the first freeing pass resets.
/// All loads/stores are relaxed — the level is pacing advice, and a
/// racing reclaimer acting on a stale level only runs (or skips) one
/// pass body it otherwise wouldn't, which is always safe.
pub struct PassController {
    /// Current decay level, `0..=MAX_EPOCH_DECAY`. Zero = full cadence.
    decay: AtomicU32,
    /// Triggered-pass counter driving the `2^decay` thinning cycle.
    passes: AtomicU64,
    /// `false` pins the controller at decay 0 (static cadence).
    enabled: bool,
}

impl PassController {
    /// A controller honoring `SmrConfig::adaptive`.
    pub fn new(enabled: bool) -> Self {
        PassController {
            decay: AtomicU32::new(0),
            passes: AtomicU64::new(0),
            enabled,
        }
    }

    /// Current decay level (0 when disabled).
    #[inline]
    pub fn decay_level(&self) -> u32 {
        if !self.enabled {
            return 0;
        }
        self.decay.load(Ordering::Relaxed)
    }

    /// The pacing gate in front of every pass body: whether this pass
    /// runs. At decay `d`, one *retire-triggered* pass (`forced = false`)
    /// in `2^d` runs; the rest are thinned. Draining passes
    /// (flush/unregister, hard-rung retries: `forced = true`) always run —
    /// draining is never thinned — and still advance the thinning phase,
    /// so a forced pass counts as the periodic full one. Pressure at or
    /// above `PressureRung::Soft` (ladder rung 1) first snaps the decay to
    /// zero, then runs the pass: accumulating garbage overrides the
    /// barren-pass economy.
    ///
    /// Undecayed (and disabled) controllers return without touching the
    /// shared pass counter: the common case adds **no** cross-thread RMW
    /// to the pass path — the counter only turns while a decay cycle
    /// actually needs the phase.
    #[inline]
    pub fn admit(&self, rung: PressureRung, forced: bool) -> bool {
        let pressed = rung >= PressureRung::Soft;
        if pressed {
            self.cancel_decay();
        }
        let d = self.decay_level();
        if d == 0 {
            return true;
        }
        let n = self.passes.fetch_add(1, Ordering::Relaxed);
        forced || pressed || n.is_multiple_of(1u64 << d)
    }

    /// Pressure-ladder hook (soft rung): snap the decay to zero *without*
    /// waiting for a freeing pass, so a domain that trips the soft
    /// watermark immediately returns to un-thinned passes. Idempotent and
    /// racy-safe — the decay word is pacing advice, and the worst a lost
    /// race costs is one thinned trigger.
    #[inline]
    fn cancel_decay(&self) {
        if self.enabled && self.decay.load(Ordering::Relaxed) != 0 {
            self.decay.store(0, Ordering::Relaxed);
        }
    }

    /// Feedback from an executed pass that freed `freed` nodes: `freed > 0`
    /// snaps the decay back to zero — the no-cliff guarantee — while a
    /// barren pass deepens it one bounded step, counted on the reclaimer's
    /// `shard` (`epoch_decay_steps`).
    pub fn note_pass_outcome(&self, shard: &ShardStats, freed: usize) {
        if !self.enabled {
            return;
        }
        if freed > 0 {
            self.decay.store(0, Ordering::Relaxed);
            return;
        }
        let deepened = self
            .decay
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                (d < MAX_EPOCH_DECAY).then_some(d + 1)
            })
            .is_ok();
        if deepened {
            shard.epoch_decay_steps.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CALM: PressureRung = PressureRung::Normal;

    /// Feeds `n` barren passes; returns how many deepened the decay.
    fn barren(c: &PassController, n: u32) -> u64 {
        let shard = ShardStats::default();
        for _ in 0..n {
            c.note_pass_outcome(&shard, 0);
        }
        shard.epoch_decay_steps.load(Ordering::Relaxed)
    }

    #[test]
    fn decay_deepens_on_barren_and_resets_on_free() {
        let c = PassController::new(true);
        assert_eq!(c.decay_level(), 0);
        for step in 1..=MAX_EPOCH_DECAY {
            assert_eq!(barren(&c, 1), 1, "barren pass deepens");
            assert_eq!(c.decay_level(), step);
        }
        assert_eq!(barren(&c, 1), 0, "bounded at MAX_EPOCH_DECAY");
        assert_eq!(c.decay_level(), MAX_EPOCH_DECAY);
        let shard = ShardStats::default();
        c.note_pass_outcome(&shard, 3);
        assert_eq!(
            shard.epoch_decay_steps.load(Ordering::Relaxed),
            0,
            "freeing pass never deepens"
        );
        assert_eq!(c.decay_level(), 0, "instant reset on the first free");
    }

    #[test]
    fn disabled_controller_is_inert() {
        let c = PassController::new(false);
        assert_eq!(barren(&c, 10), 0);
        assert_eq!(c.decay_level(), 0);
        for _ in 0..10 {
            assert!(c.admit(CALM, false), "never thinned");
        }
    }

    #[test]
    fn thinning_executes_one_in_two_pow_decay() {
        let c = PassController::new(true);
        barren(&c, 2);
        assert_eq!(c.decay_level(), 2);
        let full = (0..16).filter(|_| c.admit(CALM, false)).count();
        assert_eq!(full, 4, "1 in 2^2 triggers runs full");
    }

    #[test]
    fn forced_pass_is_always_full() {
        let c = PassController::new(true);
        barren(&c, MAX_EPOCH_DECAY);
        for _ in 0..8 {
            assert!(c.admit(CALM, true));
        }
    }

    #[test]
    fn cancel_decay_restores_full_cadence() {
        let c = PassController::new(true);
        barren(&c, MAX_EPOCH_DECAY);
        assert_eq!(c.decay_level(), MAX_EPOCH_DECAY);
        assert!(c.admit(PressureRung::Soft, false), "pressure runs the pass");
        assert_eq!(c.decay_level(), 0, "soft rung snaps decay to zero");
        assert!(c.admit(CALM, false));
        c.cancel_decay(); // idempotent at zero
        assert_eq!(c.decay_level(), 0);
    }
}
