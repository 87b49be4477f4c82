//! The per-domain **adaptive controller**: the feedback loop from sweep
//! outcomes back to the epoch cadence.
//!
//! The paper's thesis is that reservations should cost nothing until a
//! reclaimer actually needs them. This module applies the same philosophy
//! to the *reclaimer's own* recurring cost, the epoch pass
//! ([`PassController`]): a pass whose sweep frees nothing is evidence the
//! domain is idle (everything pinned, or a trickle workload whose garbage
//! drains elsewhere). Consecutive barren passes exponentially decay the
//! epoch-advance cadence — the op-path clock tick stretches from
//! `epoch_freq` to `epoch_freq << decay`, and only every `2^decay`-th
//! trigger executes the full pass body (epoch aggregation with its stripe
//! refreshes, reservation scan, sweep); skipped triggers cost one counter
//! bump. The decay is bounded ([`MAX_EPOCH_DECAY`]) and resets to zero the
//! moment any pass frees a block, so a domain that wakes up pays at most
//! `2^MAX_EPOCH_DECAY` thinned triggers of extra reclamation latency —
//! never a cliff. Skipping a sweep is always *safe*: epochs and
//! reservations only ever delay frees, never legalize them.
//!
//! The controller is advisory pacing: disabling it
//! (`SmrConfig::adaptive = false`, env `POP_ADAPTIVE=0`) pins the cadence
//! at `epoch_freq`, which the CI fallback matrix exercises.

use core::sync::atomic::{AtomicU32, AtomicU64, Ordering};

/// Decay ceiling: at most `2^MAX_EPOCH_DECAY` (= 16×) stretch of the
/// epoch cadence and pass thinning. Bounds the reclamation-latency cost
/// of waking an idle domain to 16 thinned triggers.
pub const MAX_EPOCH_DECAY: u32 = 4;

/// What a triggered reclamation pass should execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PassAction {
    /// Run the whole pass: epoch advance, reservation scan, sweep.
    Full,
    /// Decayed domain, off-cycle trigger: skip the scan and sweep (the
    /// trigger pacing has already been reset by the caller, so the next
    /// trigger still waits a full `reclaim_freq` of retires).
    Thinned,
}

/// Per-domain epoch-cadence decay, shared by every reclaimer of the
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

    /// Whether the op path's periodic clock tick is due. `count` is the
    /// thread's private operation counter, `freq` the configured
    /// `epoch_freq`. The fast exit is the undecayed modulo — the shared
    /// decay word is loaded only on the 1-in-`freq` candidates, so the
    /// controller adds nothing to the op path's common case.
    #[inline]
    pub fn tick_due(&self, count: u64, freq: u64) -> bool {
        if !count.is_multiple_of(freq) {
            return false;
        }
        let d = self.decay_level();
        d == 0 || (count / freq).is_multiple_of(1u64 << d)
    }

    /// Gate for a *retire-triggered* reclamation pass: at decay `d`, one
    /// trigger in `2^d` executes the full pass body; the rest are
    /// thinned. Flush/unregister paths must use
    /// [`Self::begin_forced_pass`] instead — draining is never thinned.
    ///
    /// Undecayed (and disabled) controllers return without touching the
    /// shared pass counter: the common case adds **no** cross-thread RMW
    /// to the pass path — the counter only turns while a decay cycle
    /// actually needs the phase.
    #[inline]
    pub fn begin_pass(&self) -> PassAction {
        let d = self.decay_level();
        if d == 0 {
            return PassAction::Full;
        }
        let n = self.passes.fetch_add(1, Ordering::Relaxed);
        if n.is_multiple_of(1u64 << d) {
            PassAction::Full
        } else {
            PassAction::Thinned
        }
    }

    /// Forced-full variant for flush/unregister/escalation paths; while a
    /// decay cycle is live it still advances the thinning phase, so a
    /// forced pass counts as the periodic full one.
    #[inline]
    pub fn begin_forced_pass(&self) -> PassAction {
        if self.decay_level() > 0 {
            self.passes.fetch_add(1, Ordering::Relaxed);
        }
        PassAction::Full
    }

    /// Pressure-ladder hook (soft rung): snap the decay to zero *without*
    /// waiting for a freeing pass, so a domain that trips the soft
    /// watermark immediately returns to full epoch cadence and un-thinned
    /// passes. Idempotent and racy-safe — the decay word is pacing
    /// advice, and the worst a lost race costs is one thinned trigger.
    #[inline]
    pub fn cancel_decay(&self) {
        if self.enabled && self.decay.load(Ordering::Relaxed) != 0 {
            self.decay.store(0, Ordering::Relaxed);
        }
    }

    /// Feedback from an executed (full) pass: `freed > 0` snaps the decay
    /// back to zero — the no-cliff guarantee — while a barren pass
    /// deepens it one bounded step. Returns `true` when this call
    /// deepened the decay (the caller owes one `epoch_decay_steps`
    /// counter bump).
    pub fn note_pass_outcome(&self, freed: usize) -> bool {
        if !self.enabled {
            return false;
        }
        if freed > 0 {
            self.decay.store(0, Ordering::Relaxed);
            return false;
        }
        self.decay
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |d| {
                (d < MAX_EPOCH_DECAY).then_some(d + 1)
            })
            .is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decay_deepens_on_barren_and_resets_on_free() {
        let c = PassController::new(true);
        assert_eq!(c.decay_level(), 0);
        for step in 1..=MAX_EPOCH_DECAY {
            assert!(c.note_pass_outcome(0), "barren pass deepens");
            assert_eq!(c.decay_level(), step);
        }
        assert!(!c.note_pass_outcome(0), "bounded at MAX_EPOCH_DECAY");
        assert_eq!(c.decay_level(), MAX_EPOCH_DECAY);
        assert!(!c.note_pass_outcome(3), "freeing pass never deepens");
        assert_eq!(c.decay_level(), 0, "instant reset on the first free");
    }

    #[test]
    fn disabled_controller_is_inert() {
        let c = PassController::new(false);
        for _ in 0..10 {
            assert!(!c.note_pass_outcome(0));
        }
        assert_eq!(c.decay_level(), 0);
        for _ in 0..10 {
            assert_eq!(c.begin_pass(), PassAction::Full, "never thinned");
        }
        assert!(c.tick_due(64, 64), "plain modulo when disabled");
    }

    #[test]
    fn thinning_executes_one_in_two_pow_decay() {
        let c = PassController::new(true);
        for _ in 0..2 {
            c.note_pass_outcome(0);
        }
        assert_eq!(c.decay_level(), 2);
        let full = (0..16)
            .filter(|_| c.begin_pass() == PassAction::Full)
            .count();
        assert_eq!(full, 4, "1 in 2^2 triggers runs full");
    }

    #[test]
    fn forced_pass_is_always_full() {
        let c = PassController::new(true);
        for _ in 0..MAX_EPOCH_DECAY {
            c.note_pass_outcome(0);
        }
        for _ in 0..8 {
            assert_eq!(c.begin_forced_pass(), PassAction::Full);
        }
    }

    #[test]
    fn cancel_decay_restores_full_cadence() {
        let c = PassController::new(true);
        for _ in 0..MAX_EPOCH_DECAY {
            c.note_pass_outcome(0);
        }
        assert_eq!(c.decay_level(), MAX_EPOCH_DECAY);
        c.cancel_decay();
        assert_eq!(c.decay_level(), 0, "soft rung snaps decay to zero");
        assert_eq!(c.begin_pass(), PassAction::Full);
        c.cancel_decay(); // idempotent at zero
        assert_eq!(c.decay_level(), 0);
    }

    #[test]
    fn tick_due_stretches_with_decay() {
        let c = PassController::new(true);
        assert!(c.tick_due(64, 64));
        assert!(!c.tick_due(65, 64));
        c.note_pass_outcome(0); // decay 1: period doubles
        assert!(!c.tick_due(64, 64), "odd multiple skipped at decay 1");
        assert!(c.tick_due(128, 64), "even multiple still ticks");
    }
}
