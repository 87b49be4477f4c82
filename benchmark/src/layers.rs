//! Turns the traced trials of one run into the per-layer metrics.
//!
//! Layers are the repo's modules as seen through their public functions.
//! `base`, `pop_shared`, `header` and `controller` are private, so they
//! appear only as the inside of a `retire`/`flush` span.
//!
//! Two kinds of number come out of the spans and must not be mixed. A
//! *whole* span reads what an operation costs in the pipelined run. A child
//! span of a *detail* span reads one call's own latency between fences: it
//! includes the fence HP pays on every read, but it over-states what a
//! cheap call costs once the processor overlaps it with its neighbours, so
//! per-call latencies are compared across schemes and commits, not
//! multiplied by call counts.

use crate::adapter::{RuntimeCost, Scheme};
use crate::stats::{median, percentile, trimmed_mean};
use crate::trace::{Kind, TimerCost, NO_PARENT};
use crate::trial::TrialOut;

/// Share of the slowest samples dropped from a mean (preemptions).
const TRIM: f64 = 0.01;

/// A detail span, reduced to what the self-time arithmetic needs.
struct DetailOp {
    read: bool,
    wall_ns: f64,
    /// Timed calls inside it.
    pairs: u32,
    /// Their durations, each less the empty-span reading, summed.
    timed_ns: f64,
    /// `protect` calls inside it that were not timed.
    untimed_protects: u32,
}

/// Samples and sums of one scheme, pooled over the run's traced rounds.
#[derive(Default)]
struct SchemeAcc {
    ops: u64,
    worker_ns: f64,
    protect_calls: u64,
    protect_ns: Vec<u32>,
    begin_op_ns: Vec<u32>,
    end_op_ns: Vec<u32>,
    retire_push_ns: Vec<u32>,
    pass_ns: Vec<u32>,
    pass_ns_sum: f64,
    pass_freed: u64,
    pass_garbage_before: u64,
    pass_pings: u64,
    /// Whole-span latencies.
    read_ns: Vec<u32>,
    update_ns: Vec<u32>,
    detail: Vec<DetailOp>,
    garbage_peaks: Vec<f64>,
    retired_nodes: u64,
}

/// Sums over every traced trial of the run, whatever the scheme.
#[derive(Default)]
struct RunAcc {
    ops: u64,
    worker_ns: f64,
    sampled_ops: u64,
    /// Wall time of every sampled span, whole or detail, as the clock read it.
    sampled_wall_ns: f64,
    whole_ops: u64,
    whole_ns: f64,
    slab_allocs: u64,
    slab_frees_whole: u64,
    batches_sealed: u64,
    soft_trips: u64,
    hard_trips: u64,
    emergency_trips: u64,
    blocks_quarantined: u64,
}

/// What the run measured outside the traced trials.
pub struct Isolated {
    pub timer: TimerCost,
    pub slab_alloc_ns: f64,
    pub slab_free_ns: f64,
    pub slab_mapped_bytes: u64,
    pub slab_released_bytes: u64,
    pub runtime: RuntimeCost,
    pub gen_ns_per_op: f64,
    pub calib_mops: f64,
    pub trials_discarded: u64,
    pub failed_share: f64,
    pub rss_peak_mb: f64,
    /// `hp_pop` Mops/s per round, traced and untraced.
    pub traced_hp_pop_mops: Vec<f64>,
    pub untraced_hp_pop_mops: Vec<f64>,
}

/// A timed call's duration in ns, less what an empty span read on the same
/// thread just before the slice.
fn net(ticks: u32, empty_ticks: u32, timer: TimerCost) -> f64 {
    timer.ns(ticks.saturating_sub(empty_ticks) as u64)
}

fn sorted(mut v: Vec<u32>) -> Vec<u32> {
    v.sort_unstable();
    v
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(values: impl Iterator<Item = f64>) -> Option<f64> {
    let (sum, n) = values.fold((0.0, 0u64), |(s, n), v| (s + v, n + 1));
    (n > 0).then(|| sum / n as f64)
}

impl SchemeAcc {
    /// What timing one call added to a detail span, measured in place: the
    /// detail spans' excess over the whole spans, per timed call. Falls back
    /// to the stand-alone calibration when either kind is missing.
    fn timed_call_cost_ns(&self, timer: TimerCost) -> f64 {
        let whole = mean(
            self.read_ns
                .iter()
                .chain(&self.update_ns)
                .map(|&ns| ns as f64),
        );
        let detail = mean(self.detail.iter().map(|d| d.wall_ns));
        let pairs = mean(self.detail.iter().map(|d| d.pairs as f64));
        match (whole, detail, pairs) {
            (Some(w), Some(d), Some(p)) if p > 0.0 && d > w => (d - w) / p,
            _ => timer.pair_ns,
        }
    }

    /// Mean over the detail spans of one kind of what is left of the span
    /// once the timed calls, their timing, and the untimed `protect`s (at
    /// this scheme's mean `protect` latency) are taken out: the structure's
    /// own code. A lower bound (it may even be negative): call latencies
    /// over-state what the calls cost inside the pipelined operation, the
    /// more so the dearer the scheme's calls.
    fn self_ns(&self, read: bool, call_cost_ns: f64, protect_ns: f64) -> Option<f64> {
        mean(self.detail.iter().filter(|d| d.read == read).map(|d| {
            d.wall_ns
                - d.pairs as f64 * call_cost_ns
                - d.timed_ns
                - d.untimed_protects as f64 * protect_ns
        }))
    }
}

pub struct Layers {
    schemes: Vec<(Scheme, SchemeAcc)>,
    run: RunAcc,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            schemes: Scheme::ALL
                .iter()
                .map(|&s| (s, SchemeAcc::default()))
                .collect(),
            run: RunAcc::default(),
        }
    }

    /// Folds one traced trial in.
    pub fn add(&mut self, scheme: Scheme, out: &TrialOut, timer: TimerCost) {
        let acc = &mut self
            .schemes
            .iter_mut()
            .find(|(s, _)| *s == scheme)
            .expect("every scheme has an accumulator")
            .1;
        let run = &mut self.run;
        acc.ops += out.ops;
        acc.worker_ns += out.worker_ns;
        acc.garbage_peaks.push(out.garbage_peak as f64);
        acc.retired_nodes += out.stats.retired_nodes;
        run.ops += out.ops;
        run.worker_ns += out.worker_ns;
        run.slab_allocs += out.stats.slab_allocs;
        run.slab_frees_whole += out.stats.slab_frees_whole;
        run.batches_sealed += out.stats.batches_sealed;
        run.soft_trips += out.stats.pressure_soft_trips;
        run.hard_trips += out.stats.pressure_hard_trips;
        run.emergency_trips += out.stats.pressure_emergency_trips;
        run.blocks_quarantined += out.stats.blocks_quarantined;

        for client in &out.traces {
            let net = |ticks: u32| net(ticks, client.empty_span_ticks, timer);
            acc.protect_calls += client.calls[Kind::Protect as usize];
            acc.retire_push_ns.extend(
                client
                    .log
                    .retire_push
                    .iter()
                    .map(|&d| net(d).round() as u32),
            );
            for pass in &client.log.passes {
                let dur_ns = timer.ns(pass.dur);
                acc.pass_ns.push(dur_ns.min(u32::MAX as f64) as u32);
                acc.pass_ns_sum += dur_ns;
                acc.pass_freed += pass.freed;
                acc.pass_garbage_before += pass.garbage_after + pass.freed;
                acc.pass_pings += pass.pings;
            }

            let spans = &client.log.spans;
            let mut at = 0;
            while at < spans.len() {
                let op = spans[at];
                debug_assert_eq!(op.parent, NO_PARENT);
                let children = &spans[at + 1..at + 1 + op.pairs as usize];
                at += 1 + children.len();
                let read = op.kind == Kind::OpRead;
                let wall_ns = timer.ns(op.dur as u64);
                run.sampled_ops += 1;
                run.sampled_wall_ns += wall_ns;
                if !op.detail {
                    let ns = (wall_ns - timer.coarse_ns).max(0.0);
                    run.whole_ops += 1;
                    run.whole_ns += ns;
                    let sink = if read {
                        &mut acc.read_ns
                    } else {
                        &mut acc.update_ns
                    };
                    sink.push(ns.round() as u32);
                    continue;
                }
                let mut timed_protects = 0;
                for child in children {
                    let sink = match child.kind {
                        Kind::Protect => {
                            timed_protects += 1;
                            &mut acc.protect_ns
                        }
                        Kind::BeginOp => &mut acc.begin_op_ns,
                        Kind::EndOp => &mut acc.end_op_ns,
                        _ => continue,
                    };
                    sink.push(net(child.dur).round() as u32);
                }
                acc.detail.push(DetailOp {
                    read,
                    wall_ns,
                    pairs: op.pairs,
                    timed_ns: children.iter().map(|c| net(c.dur)).sum(),
                    untimed_protects: op.protects - timed_protects,
                });
            }
        }
    }

    /// `trace.coverage`: mean whole-span time over the mean time of the
    /// operations that were not sampled, in the same trials. The spans
    /// describe the untimed run only while this stays near 1; outside
    /// 0.85–1.15 the span clock or the sampling is off and no layer figure
    /// of the run should be believed.
    fn coverage(&self) -> f64 {
        let r = &self.run;
        ratio(
            ratio(r.whole_ns, r.whole_ops as f64),
            ratio(
                r.worker_ns - r.sampled_wall_ns,
                (r.ops - r.sampled_ops) as f64,
            ),
        )
    }

    /// Passes the classifier saw for `scheme` and the count its domains'
    /// own `retired_nodes / reclaim_freq` predicts.
    pub fn pass_check(&self, scheme: Scheme) -> (u64, f64) {
        let acc = &self
            .schemes
            .iter()
            .find(|(s, _)| *s == scheme)
            .expect("known scheme")
            .1;
        (
            acc.pass_ns.len() as u64,
            acc.retired_nodes as f64 / crate::adapter::RECLAIM_FREQ as f64,
        )
    }

    /// Every per-layer metric, by name.
    pub fn metrics(self, iso: &Isolated) -> Vec<(String, f64)> {
        let coverage = self.coverage();
        let mut m: Vec<(String, f64)> = Vec::new();
        let mut put = |name: String, value: f64| m.push((name, value));
        let run = self.run;
        let mut call_costs = Vec::new();
        let (mut read_self_ns, mut update_self_ns) = (0.0, 0.0);
        for (scheme, mut acc) in self.schemes {
            let s = scheme.key();
            let call_cost_ns = acc.timed_call_cost_ns(iso.timer);
            let protect_ns = trimmed_mean(&sorted(std::mem::take(&mut acc.protect_ns)), TRIM);
            call_costs.push(call_cost_ns);
            if scheme == Scheme::Ebr {
                // The structure's own time is read under EBR: its calls are
                // the cheapest (its `protect` is the traversal's own load),
                // so the least is subtracted and the least can go wrong.
                // Under HP on `list-read` the subtraction is 500 × 10 ns
                // from a 4 µs span.
                let own = |read| {
                    acc.self_ns(read, call_cost_ns, protect_ns)
                        .unwrap_or(0.0)
                        .max(0.0)
                };
                (read_self_ns, update_self_ns) = (own(true), own(false));
            }

            let passes = acc.pass_ns.len() as f64;
            let pass_ns = sorted(acc.pass_ns);
            put(format!("smr.{s}.protect_ns"), protect_ns);
            put(
                format!("smr.{s}.protects_per_op"),
                ratio(acc.protect_calls as f64, acc.ops as f64),
            );
            put(
                format!("smr.{s}.bracket_ns"),
                trimmed_mean(&sorted(acc.begin_op_ns), TRIM)
                    + trimmed_mean(&sorted(acc.end_op_ns), TRIM),
            );
            put(
                format!("smr.{s}.retire_push_ns"),
                percentile(&sorted(acc.retire_push_ns), 0.5),
            );
            put(format!("smr.{s}.pass_ns_p50"), percentile(&pass_ns, 0.5));
            put(format!("smr.{s}.pass_ns_max"), percentile(&pass_ns, 1.0));
            put(
                format!("smr.{s}.passes_per_kop"),
                ratio(passes * 1e3, acc.ops as f64),
            );
            put(
                format!("smr.{s}.pass_yield"),
                ratio(acc.pass_freed as f64, acc.pass_garbage_before as f64),
            );
            put(
                format!("smr.{s}.pings_per_pass"),
                ratio(acc.pass_pings as f64, passes),
            );
            put(
                format!("smr.{s}.pass_time_share"),
                ratio(acc.pass_ns_sum, acc.worker_ns),
            );
            if matches!(scheme, Scheme::Hp | Scheme::Ebr) {
                put(format!("smr.{s}.garbage_peak"), median(&acc.garbage_peaks));
            }
            let (reads, updates) = (sorted(acc.read_ns), sorted(acc.update_ns));
            put(format!("ds.{s}.read_p50_ns"), percentile(&reads, 0.5));
            put(format!("ds.{s}.read_p999_ns"), percentile(&reads, 0.999));
            put(format!("ds.{s}.update_p50_ns"), percentile(&updates, 0.5));
            put(
                format!("ds.{s}.update_p999_ns"),
                percentile(&updates, 0.999),
            );
        }
        put("ds.read_self_ns".into(), read_self_ns);
        put("ds.update_self_ns".into(), update_self_ns);

        put("slab.alloc_ns".into(), iso.slab_alloc_ns);
        put("slab.free_ns".into(), iso.slab_free_ns);
        put(
            "slab.allocs_per_kop".into(),
            ratio(run.slab_allocs as f64 * 1e3, run.ops as f64),
        );
        put(
            "slab.frees_whole_share".into(),
            ratio(run.slab_frees_whole as f64, run.batches_sealed as f64),
        );
        put("slab.mapped_bytes_end".into(), iso.slab_mapped_bytes as f64);
        put("slab.released_bytes".into(), iso.slab_released_bytes as f64);
        put("slab.rss_peak_mb".into(), iso.rss_peak_mb);

        put("pressure.soft_trips".into(), run.soft_trips as f64);
        put("pressure.hard_trips".into(), run.hard_trips as f64);
        put(
            "pressure.emergency_trips".into(),
            run.emergency_trips as f64,
        );
        put(
            "pressure.blocks_quarantined".into(),
            run.blocks_quarantined as f64,
        );

        put("runtime.ping_send_ns".into(), iso.runtime.ping_send_ns);
        put(
            "runtime.ping_roundtrip_ns".into(),
            iso.runtime.ping_roundtrip_ns,
        );
        put("runtime.membarrier_ns".into(), iso.runtime.membarrier_ns);
        put(
            "runtime.futex_roundtrip_ns".into(),
            iso.runtime.futex_roundtrip_ns,
        );
        put(
            "runtime.vm_map_release_ns".into(),
            iso.runtime.vm_map_release_ns,
        );

        put("gen.ns_per_op".into(), iso.gen_ns_per_op);
        put("gen.calib_mops".into(), iso.calib_mops);
        put("gen.trials_discarded".into(), iso.trials_discarded as f64);
        put("gen.ops_failed_share".into(), iso.failed_share);

        put("trace.coverage".into(), coverage);
        put(
            "trace.overhead_share".into(),
            1.0 - ratio(
                median(&iso.traced_hp_pop_mops),
                median(&iso.untraced_hp_pop_mops),
            ),
        );
        put("trace.timer_ns".into(), median(&call_costs));
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TIMER: TimerCost = TimerCost {
        ns_per_tick: 0.5,
        pair_ns: 40.0,
        coarse_ns: 10.0,
    };

    fn detail(
        read: bool,
        wall_ns: f64,
        pairs: u32,
        timed_ns: f64,
        untimed_protects: u32,
    ) -> DetailOp {
        DetailOp {
            read,
            wall_ns,
            pairs,
            timed_ns,
            untimed_protects,
        }
    }

    #[test]
    fn timed_call_cost_is_the_detail_spans_excess_per_call() {
        let mut acc = SchemeAcc::default();
        assert_eq!(
            acc.timed_call_cost_ns(TIMER),
            40.0,
            "no spans: the calibration"
        );
        acc.update_ns = vec![900, 1100]; // whole spans: 1000 ns on average
        acc.detail.push(detail(false, 1300.0, 4, 0.0, 0));
        acc.detail.push(detail(false, 1500.0, 6, 0.0, 0));
        // (1400 − 1000) / 5 timed calls
        assert_eq!(acc.timed_call_cost_ns(TIMER), 80.0);
    }

    #[test]
    fn self_time_is_the_span_less_calls_less_timing() {
        let mut acc = SchemeAcc::default();
        acc.detail.push(detail(false, 1000.0, 3, 115.0, 32));
        acc.detail.push(detail(true, 5000.0, 1, 0.0, 0));
        // 1000 − 3 × 50 timing − 115 timed calls − 32 × 5 untimed protects
        assert_eq!(
            acc.self_ns(false, 50.0, 5.0),
            Some(1000.0 - 150.0 - 115.0 - 160.0)
        );
        assert_eq!(acc.self_ns(true, 50.0, 5.0), Some(4950.0));
        acc.detail.clear();
        assert_eq!(
            acc.self_ns(true, 50.0, 5.0),
            None,
            "no reads, no read self time"
        );
    }

    #[test]
    fn net_takes_the_empty_span_off_and_never_goes_negative() {
        assert_eq!(net(100, 40, TIMER), 30.0);
        assert_eq!(net(10, 40, TIMER), 0.0);
    }
}
