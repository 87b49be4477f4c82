//! One run of one workload: rounds of paired trials, bracketed by the noise
//! sentinel, reduced to medians.
//!
//! Every round runs one trial per scheme with the *same* seed, so the
//! schemes are paired and slow host drift hits all of them alike. An
//! untraced run has [`ROUNDS`] rounds and yields the end-to-end metrics; a
//! traced run has [`TRACED_ROUNDS`] rounds of traced trials (plus one
//! untraced `hp_pop` trial per round, for the tracing overhead) and yields
//! the per-layer metrics. End-to-end values never come from a traced run.

use std::collections::VecDeque;
use std::time::{Duration, Instant};

use crate::adapter::{self, Scheme};
use crate::calib::{self, DISTURBED_BELOW};
use crate::gen::{OpStream, Oracle};
use crate::json::Json;
use crate::layers::{Isolated, Layers};
use crate::manifest;
use crate::stats::{median, summarize, Stat, Summary};
use crate::trace::{self, TimerCost};
use crate::trial::{run_trial, TrialOut, TrialSpec};
use crate::workload::Workload;

pub const ROUNDS: u64 = 11;
pub const TRACED_ROUNDS: u64 = 3;
/// Disturbed trials re-run per run, at most; the rest are kept and flagged.
const MAX_RERUNS: u32 = 5;
/// Sampled operations per client and trial written to the spans file.
const SPAN_FILE_OPS: usize = 64;

pub struct RunSpec {
    pub workload: &'static Workload,
    pub seed: u64,
    /// Measured time: the slices of all the run's trials add up to this.
    pub seconds: f64,
    pub traced: bool,
}

pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    /// How `values` become `value`.
    pub stat: Stat,
    /// What the metric reports.
    pub value: f64,
    pub summary: Summary,
    /// The per-round (for `setup_s`, per-trial) values behind it.
    pub values: Vec<f64>,
}

impl Metric {
    fn new(name: String, unit: &'static str, stat: Stat, values: Vec<f64>) -> Metric {
        Metric {
            name,
            unit,
            stat,
            value: stat.of(&values),
            summary: summarize(&values),
            values,
        }
    }
}

pub struct RunOut {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub trials: Vec<Json>,
    pub rounds: u64,
    pub slice: Duration,
    /// JSON lines for the spans file (traced runs only).
    pub span_lines: Vec<String>,
    pub wall_s: f64,
}

struct Kept {
    scheme: Scheme,
    traced: bool,
    out: TrialOut,
}

/// The sentinel's state across a run.
struct Sentinel {
    best: f64,
    last: f64,
    readings: Vec<f64>,
    reruns_left: u32,
    discarded: u64,
}

impl Sentinel {
    fn start() -> Sentinel {
        let first = calib::reading();
        Sentinel {
            best: first,
            last: first,
            readings: vec![first],
            reruns_left: MAX_RERUNS,
            discarded: 0,
        }
    }

    /// Takes the reading that closes a trial (and opens the next) and says
    /// whether the trial was disturbed.
    fn close_trial(&mut self) -> bool {
        let before = self.last;
        self.last = calib::reading();
        self.readings.push(self.last);
        self.best = self.best.max(self.last);
        before.min(self.last) < DISTURBED_BELOW * self.best
    }
}

/// Cost of popbench's own per-operation work (draw + oracle), in ns.
fn gen_ns_per_op(w: &Workload, seed: u64) -> f64 {
    const N: u64 = 2_000_000;
    let mut stream = OpStream::new(seed, 0, w.key_range, w.mix);
    let mut oracle = Oracle::new(0, w.key_range);
    let start = Instant::now();
    for _ in 0..N {
        let op = stream.next_op();
        oracle.check(op, std::hint::black_box(true));
    }
    std::hint::black_box(oracle.digest);
    start.elapsed().as_nanos() as f64 / N as f64
}

pub fn run(spec: &RunSpec) -> RunOut {
    let wall = Instant::now();
    let rounds = if spec.traced { TRACED_ROUNDS } else { ROUNDS };
    let mut plan: Vec<(Scheme, bool)> = Scheme::ALL.iter().map(|&s| (s, spec.traced)).collect();
    if spec.traced {
        plan.push((Scheme::HpPop, false));
    }
    let slice = Duration::from_secs_f64(spec.seconds / (rounds as usize * plan.len()) as f64);

    let timer = spec.traced.then(trace::calibrate_timer);
    // Traced trials are folded in (and their span buffers dropped) as they
    // finish, so that one trial's buffers, not fifteen, sit in memory.
    let mut layers = Layers::new();
    let mut span_lines = Vec::new();
    let mut sentinel = Sentinel::start();
    let mut kept: Vec<Kept> = Vec::new();
    let mut trials = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);

    for round in 0..rounds {
        let mut queue: VecDeque<(Scheme, bool)> = plan.iter().copied().collect();
        while let Some((scheme, traced)) = queue.pop_front() {
            let mut out = run_trial(&TrialSpec {
                workload: spec.workload,
                scheme,
                seed: spec.seed.wrapping_add(round),
                slice,
                traced,
            });
            attempted += out.attempted;
            failed += out.failed;
            let disturbed = sentinel.close_trial();
            let discard = disturbed && sentinel.reruns_left > 0;
            trials.push(Json::obj([
                ("round", Json::Num(round as f64)),
                ("scheme", Json::str(scheme.key())),
                ("traced", Json::Bool(traced)),
                ("mops", Json::Num(out.mops)),
                ("window_mops", Json::nums(&out.window_mops)),
                ("garbage_peak", Json::Num(out.garbage_peak as f64)),
                ("rss_peak_mb", Json::Num(out.rss_peak_mb)),
                ("setup_s", Json::Num(out.setup_s)),
                ("failed", Json::Num(out.failed as f64)),
                ("stream_digest", Json::Str(format!("{:016x}", out.digest))),
                ("calib_mops", Json::Num(sentinel.last)),
                ("disturbed", Json::Bool(disturbed)),
                ("discarded", Json::Bool(discard)),
            ]));
            if discard {
                // Re-queued at the end of its round; the decision never
                // looked at the trial's own result.
                sentinel.reruns_left -= 1;
                sentinel.discarded += 1;
                queue.push_back((scheme, traced));
            } else {
                if let Some(timer) = timer.filter(|_| traced) {
                    layers.add(scheme, &out, timer);
                    span_lines.extend(span_file_lines(round, scheme, &out, timer));
                    out.traces.clear();
                }
                kept.push(Kept {
                    scheme,
                    traced,
                    out,
                });
            }
        }
    }

    let per_round = |scheme: Scheme, traced: bool, f: &dyn Fn(&TrialOut) -> f64| -> Vec<f64> {
        kept.iter()
            .filter(|k| k.scheme == scheme && k.traced == traced)
            .map(|k| f(&k.out))
            .collect()
    };

    let mut metrics = Vec::new();
    if let Some(timer) = timer {
        for scheme in Scheme::ALL {
            let (seen, predicted) = layers.pass_check(scheme);
            if predicted >= 8.0 && !(predicted / 2.0..=predicted * 2.0).contains(&(seen as f64)) {
                eprintln!(
                    "popbench: warning: pass classifier saw {seen} {} passes, retired_nodes / reclaim_freq predicts {predicted:.0}",
                    scheme.key()
                );
            }
        }
        let (slab_alloc_ns, slab_free_ns) = adapter::probe_slab();
        let (slab_mapped_bytes, slab_released_bytes) = adapter::slab_totals();
        let iso = Isolated {
            timer,
            slab_alloc_ns,
            slab_free_ns,
            slab_mapped_bytes,
            slab_released_bytes,
            runtime: adapter::probe_runtime(),
            gen_ns_per_op: gen_ns_per_op(spec.workload, spec.seed),
            calib_mops: median(&sentinel.readings),
            trials_discarded: sentinel.discarded,
            failed_share: failed as f64 / attempted as f64,
            // The bare trials' resident set: the traced ones' includes
            // their span buffers.
            rss_peak_mb: median(&per_round(Scheme::HpPop, false, &|o| o.rss_peak_mb)),
            traced_hp_pop_mops: per_round(Scheme::HpPop, true, &|o| o.mops),
            untraced_hp_pop_mops: per_round(Scheme::HpPop, false, &|o| o.mops),
        };
        let units = manifest::per_layer();
        for (name, value) in layers.metrics(&iso) {
            let unit = units
                .iter()
                .find(|u| u.name == name)
                .unwrap_or_else(|| panic!("{name} is not in the per-layer table"))
                .unit;
            metrics.push(Metric::new(name, unit, Stat::Median, vec![value]));
        }
        assert_eq!(
            metrics.len(),
            units.len(),
            "every per-layer metric is reported"
        );
    } else {
        let mut put =
            |name: String, unit, stat, values| metrics.push(Metric::new(name, unit, stat, values));
        let setups = kept.iter().map(|k| k.out.setup_s).collect();
        put("setup_s".into(), "s", Stat::Median, setups);
        for scheme in Scheme::ALL {
            // Every 50 ms window of every round's slice.
            let windows = kept
                .iter()
                .filter(|k| k.scheme == scheme)
                .flat_map(|k| k.out.window_mops.iter().copied())
                .collect();
            put(
                format!("{}_mops", scheme.key()),
                "Mops/s",
                Stat::P95,
                windows,
            );
        }
        for scheme in manifest::POP_SCHEMES {
            let peaks = per_round(scheme, false, &|o| o.garbage_peak as f64);
            put(
                format!("{}_garbage_peak", scheme.key()),
                "nodes",
                Stat::TopThree,
                peaks,
            );
        }
    }

    RunOut {
        metrics,
        attempted,
        failed,
        trials,
        rounds,
        slice,
        span_lines,
        wall_s: wall.elapsed().as_secs_f64(),
    }
}

/// The first [`SPAN_FILE_OPS`] sampled operations of each client, one span
/// per line: name, start, end, and the span that caused it.
fn span_file_lines(round: u64, scheme: Scheme, out: &TrialOut, timer: TimerCost) -> Vec<String> {
    let mut lines = Vec::new();
    for (client, t) in out.traces.iter().enumerate() {
        let mut ops = 0;
        for (id, span) in t.log.spans.iter().enumerate() {
            if span.parent == trace::NO_PARENT {
                ops += 1;
                if ops > SPAN_FILE_OPS {
                    break;
                }
            }
            let parent = match span.parent {
                trace::NO_PARENT => Json::Null,
                p => Json::Num(p as f64),
            };
            lines.push(
                Json::obj([
                    ("round", Json::Num(round as f64)),
                    ("scheme", Json::str(scheme.key())),
                    ("client", Json::Num(client as f64)),
                    ("id", Json::Num(id as f64)),
                    ("parent", parent),
                    ("name", Json::str(span.kind.name())),
                    ("start_ns", Json::Num(timer.ns(span.start).round())),
                    (
                        "end_ns",
                        Json::Num(timer.ns(span.start + span.dur as u64).round()),
                    ),
                    ("pass", Json::Bool(span.pass)),
                ])
                .render(),
            );
        }
    }
    lines
}

impl RunOut {
    /// The one-line result the driver reads.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.failed == 0)),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]),
                    )
                })),
            ),
        ])
        .render()
    }

    /// The full record kept in result files (what `compare` reads).
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("rounds", Json::Num(self.rounds as f64)),
            ("slice_ms", Json::Num(self.slice.as_secs_f64() * 1e3)),
            ("wall_s", Json::Num(self.wall_s)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|m| {
                    (
                        m.name.clone(),
                        Json::obj([
                            ("unit", Json::str(m.unit)),
                            ("value", Json::Num(m.value)),
                            ("stat", Json::str(m.stat.name())),
                            ("median", Json::Num(m.summary.median)),
                            ("q1", Json::Num(m.summary.q1)),
                            ("q3", Json::Num(m.summary.q3)),
                            ("n", Json::Num(m.summary.n as f64)),
                            ("values", Json::nums(&m.values)),
                        ]),
                    )
                })),
            ),
            ("trials", Json::Arr(self.trials.clone())),
        ])
    }

    /// Every metric by name with its unit, for people.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let s = m.summary;
            out.push_str(&format!(
                "{:<32} {:>14.4} {:<9} {:<10} median {:>12.4}  q1 {:>12.4}  q3 {:>12.4}  n {}\n",
                m.name,
                m.value,
                m.unit,
                m.stat.name(),
                s.median,
                s.q1,
                s.q3,
                s.n
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    fn metric(out: &RunOut, name: &str) -> f64 {
        out.metrics
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} not reported"))
            .value
    }

    /// The traced run end to end, on 100 ms `list-read` trials.
    #[test]
    fn a_traced_run_reports_every_layer_and_covers_the_untimed_run() {
        let _serial = crate::trial::timing_tests();
        let trials = (TRACED_ROUNDS * 6) as f64;
        let out = run(&RunSpec {
            workload: workload::by_name("list-read").unwrap(),
            seed: 3,
            seconds: 0.1 * trials,
            traced: true,
        });
        assert_eq!(out.failed, 0);
        assert_eq!(out.metrics.len(), manifest::per_layer().len());
        let coverage = metric(&out, "trace.coverage");
        assert!(
            (0.85..=1.15).contains(&coverage),
            "trace.coverage = {coverage}"
        );
        assert!(metric(&out, "smr.hp.protect_ns") > metric(&out, "smr.ebr.protect_ns"));
        assert!((400.0..600.0).contains(&metric(&out, "smr.hp_pop.protects_per_op")));
        assert!(metric(&out, "ds.hp_pop.read_p50_ns") > 100.0);
        assert!(metric(&out, "trace.timer_ns") > 1.0);
        assert!(metric(&out, "runtime.ping_roundtrip_ns") > metric(&out, "runtime.ping_send_ns"));
        assert!(!out.span_lines.is_empty());
        assert!(crate::json::parse(&out.span_lines[0]).is_ok());
        assert!(crate::json::parse(&out.result_line()).is_ok());
    }

    #[test]
    fn an_untraced_run_reports_every_end_to_end_metric() {
        let _serial = crate::trial::timing_tests();
        let out = run(&RunSpec {
            workload: workload::by_name("stalled-reader").unwrap(),
            seed: 3,
            seconds: 0.02 * (ROUNDS * 5) as f64,
            traced: false,
        });
        assert_eq!(out.failed, 0);
        let names: Vec<_> = out.metrics.iter().map(|m| m.name.clone()).collect();
        let expected: Vec<_> = manifest::end_to_end().into_iter().map(|m| m.name).collect();
        assert_eq!(names, expected, "the manifest's metrics, in its order");
        assert!(
            out.metrics.iter().all(|m| m.value > 0.0),
            "no metric reads 0"
        );
        assert_eq!(
            metric(&out, "hp_pop_garbage_peak") as u64 / 1000,
            2,
            "bounded by ~reclaim_freq"
        );
        let line = crate::json::parse(&out.result_line()).unwrap();
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
    }
}
