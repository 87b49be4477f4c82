//! The metric tables: names, units, directions and bounds. `BENCHMARK.json`
//! at the repo root is `popbench manifest`; a test keeps the two equal.

use crate::adapter::Scheme;
use crate::json::Json;
use crate::workload;

pub struct EndToEnd {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The three POP schemes carry a garbage bound; the anchors' garbage is a
/// layer metric (`smr.hp.garbage_peak`, `smr.ebr.garbage_peak`).
pub const POP_SCHEMES: [Scheme; 3] = [Scheme::HpPop, Scheme::HePop, Scheme::EpochPop];

pub fn end_to_end() -> Vec<EndToEnd> {
    let mut m = vec![EndToEnd {
        name: "setup_s".into(),
        unit: "s",
        better: "lower",
        bound: 0.25,
    }];
    for s in Scheme::ALL {
        m.push(EndToEnd {
            name: format!("{}_mops", s.key()),
            unit: "Mops/s",
            better: "higher",
            bound: 0.25,
        });
    }
    for s in POP_SCHEMES {
        m.push(EndToEnd {
            name: format!("{}_garbage_peak", s.key()),
            unit: "nodes",
            better: "lower",
            bound: 0.25,
        });
    }
    m
}

pub fn per_layer() -> Vec<PerLayer> {
    let mut m = Vec::new();
    let mut put = |name: String, unit, better| m.push(PerLayer { name, unit, better });
    for scheme in Scheme::ALL {
        let s = scheme.key();
        put(format!("smr.{s}.protect_ns"), "ns", "lower");
        put(format!("smr.{s}.protects_per_op"), "count", "lower");
        put(format!("smr.{s}.bracket_ns"), "ns", "lower");
        put(format!("smr.{s}.retire_push_ns"), "ns", "lower");
        put(format!("smr.{s}.pass_ns_p50"), "ns", "lower");
        put(format!("smr.{s}.pass_ns_max"), "ns", "lower");
        put(format!("smr.{s}.passes_per_kop"), "1/kop", "lower");
        put(format!("smr.{s}.pass_yield"), "ratio", "higher");
        put(format!("smr.{s}.pings_per_pass"), "count", "lower");
        put(format!("smr.{s}.pass_time_share"), "ratio", "lower");
        if matches!(scheme, Scheme::Hp | Scheme::Ebr) {
            put(format!("smr.{s}.garbage_peak"), "nodes", "lower");
        }
        put(format!("ds.{s}.read_p50_ns"), "ns", "lower");
        put(format!("ds.{s}.read_p999_ns"), "ns", "lower");
        put(format!("ds.{s}.update_p50_ns"), "ns", "lower");
        put(format!("ds.{s}.update_p999_ns"), "ns", "lower");
    }
    for (name, unit, better) in [
        ("ds.read_self_ns", "ns", "lower"),
        ("ds.update_self_ns", "ns", "lower"),
        ("slab.alloc_ns", "ns", "lower"),
        ("slab.free_ns", "ns", "lower"),
        ("slab.allocs_per_kop", "1/kop", "lower"),
        ("slab.frees_whole_share", "ratio", "higher"),
        ("slab.mapped_bytes_end", "bytes", "lower"),
        ("slab.released_bytes", "bytes", "higher"),
        ("slab.rss_peak_mb", "MB", "lower"),
        ("pressure.soft_trips", "count", "lower"),
        ("pressure.hard_trips", "count", "lower"),
        ("pressure.emergency_trips", "count", "lower"),
        ("pressure.blocks_quarantined", "count", "lower"),
        ("runtime.ping_send_ns", "ns", "lower"),
        ("runtime.ping_roundtrip_ns", "ns", "lower"),
        ("runtime.membarrier_ns", "ns", "lower"),
        ("runtime.futex_roundtrip_ns", "ns", "lower"),
        ("runtime.vm_map_release_ns", "ns", "lower"),
        ("gen.ns_per_op", "ns", "lower"),
        ("gen.calib_mops", "Msteps/s", "higher"),
        ("gen.trials_discarded", "count", "lower"),
        ("gen.ops_failed_share", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_share", "ratio", "lower"),
        ("trace.timer_ns", "ns", "lower"),
    ] {
        put(name.into(), unit, better);
    }
    m
}

/// Measured seconds of one run: 11 rounds × 5 schemes × a 400 ms slice.
pub const RUN_SECONDS: u32 = 22;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|&s| Json::str(s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                workload::ALL
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                end_to_end()
                    .into_iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .into_iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::Str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn well_formed_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_meet_the_manifest_limits() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert_eq!(e2e.len(), 9);
        assert_eq!(layers.len(), 97);
        assert!(e2e
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        let mut names: Vec<&str> = e2e
            .iter()
            .map(|m| m.name.as_str())
            .chain(layers.iter().map(|m| m.name.as_str()))
            .chain(workload::ALL.iter().map(|w| w.name))
            .collect();
        assert!(names.iter().all(|n| well_formed_name(n)));
        names.sort_unstable();
        assert!(
            names.windows(2).all(|w| w[0] != w[1]),
            "a name is used once"
        );
        assert!(e2e.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let unit_ok = |u: &str| {
            u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        assert!(e2e.iter().all(|m| unit_ok(m.unit)) && layers.iter().all(|m| unit_ok(m.unit)));
        assert!(benchmark_json().render_pretty().len() < 64 * 1024);
    }

    /// `BENCHMARK.json` is generated (`popbench manifest`), never edited.
    #[test]
    fn the_committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(crate::json::parse(&committed).unwrap(), benchmark_json());
    }
}
