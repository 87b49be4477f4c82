//! Figure specifications: one entry per table/figure in the paper, with
//! host-scaled defaults and `--paper` full-scale parameters.
//!
//! The `figures` binary looks an entry up by its tag ([`find`]) and runs
//! it ([`run_figure`]) through the shared workload runner.

use std::time::Duration;

use pop_core::SmrConfig;
use pop_workload::{OpMix, RunConfig, RunRecord, WorkloadKind};

use crate::{run_one, DsId, SchemeId};

/// Which workload(s) a figure sweeps.
#[derive(Clone, Copy, Debug)]
pub enum FigureWorkload {
    /// 50% inserts / 50% deletes.
    UpdateHeavy,
    /// 90% contains / 5% inserts / 5% deletes.
    ReadHeavy,
    /// Both of the above (appendix figures).
    Both,
    /// Figure 4: reader/updater role split, sweeping structure size.
    LongRunningReads,
}

/// A reproducible figure from the paper.
#[derive(Clone, Copy, Debug)]
pub struct FigureSpec {
    /// Identifier (`fig1a` … `fig11`).
    pub id: &'static str,
    /// Human description matching the paper caption.
    pub caption: &'static str,
    /// Structure under test.
    pub ds: DsId,
    /// Key range in the paper.
    pub key_range_paper: u64,
    /// Key range scaled to this host.
    pub key_range_scaled: u64,
    /// Workload shape.
    pub workload: FigureWorkload,
    /// Whether the Crystalline-family stand-in joins the sweep.
    pub include_hyaline: bool,
    /// Retire-list threshold (paper default 24 576; Figure 4 uses 2 048).
    pub reclaim_freq: usize,
}

/// Every figure in the paper, in order.
pub const FIGURES: &[FigureSpec] = &[
    FigureSpec {
        id: "fig1a",
        caption: "Update-heavy DGT: throughput + max retire list",
        ds: DsId::Dgt,
        key_range_paper: 200_000,
        key_range_scaled: 20_000,
        workload: FigureWorkload::UpdateHeavy,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig1b",
        caption: "Update-heavy HMHT (lf 6): throughput + max retire list",
        ds: DsId::Hmht,
        key_range_paper: 6_000_000,
        key_range_scaled: 60_000,
        workload: FigureWorkload::UpdateHeavy,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig1c",
        caption: "Update-heavy ABT: throughput + max retire list",
        ds: DsId::Abt,
        key_range_paper: 20_000_000,
        key_range_scaled: 200_000,
        workload: FigureWorkload::UpdateHeavy,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig2a",
        caption: "Update-heavy HML (2K): throughput + max retire list",
        ds: DsId::Hml,
        key_range_paper: 2_000,
        key_range_scaled: 2_000,
        workload: FigureWorkload::UpdateHeavy,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig2b",
        caption: "Update-heavy LL (2K): throughput + max retire list",
        ds: DsId::Ll,
        key_range_paper: 2_000,
        key_range_scaled: 2_000,
        workload: FigureWorkload::UpdateHeavy,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig3a",
        caption: "Read-heavy ABT: throughput",
        ds: DsId::Abt,
        key_range_paper: 20_000_000,
        key_range_scaled: 200_000,
        workload: FigureWorkload::ReadHeavy,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig3b",
        caption: "Read-heavy DGT: throughput",
        ds: DsId::Dgt,
        key_range_paper: 200_000,
        key_range_scaled: 20_000,
        workload: FigureWorkload::ReadHeavy,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig4",
        caption: "Long-running reads, HML size sweep: read ratio to NR + memory",
        ds: DsId::Hml,
        key_range_paper: 800_000,
        key_range_scaled: 50_000,
        workload: FigureWorkload::LongRunningReads,
        include_hyaline: false,
        reclaim_freq: 2_048, // the paper sets 2K to force frequent reclamation
    },
    FigureSpec {
        id: "fig5",
        caption: "Appendix ABT: both mixes, throughput + memory + unreclaimed",
        ds: DsId::Abt,
        key_range_paper: 20_000_000,
        key_range_scaled: 200_000,
        workload: FigureWorkload::Both,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig6",
        caption: "Appendix DGT (2M): both mixes, throughput + memory + unreclaimed",
        ds: DsId::Dgt,
        key_range_paper: 2_000_000,
        key_range_scaled: 100_000,
        workload: FigureWorkload::Both,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig7",
        caption: "Appendix HMHT (6M): both mixes, throughput + memory + unreclaimed",
        ds: DsId::Hmht,
        key_range_paper: 6_000_000,
        key_range_scaled: 60_000,
        workload: FigureWorkload::Both,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig8",
        caption: "Appendix HML (2K): both mixes, throughput + memory + unreclaimed",
        ds: DsId::Hml,
        key_range_paper: 2_000,
        key_range_scaled: 2_000,
        workload: FigureWorkload::Both,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig9",
        caption: "Appendix LL (2K): both mixes, throughput + memory + unreclaimed",
        ds: DsId::Ll,
        key_range_paper: 2_000,
        key_range_scaled: 2_000,
        workload: FigureWorkload::Both,
        include_hyaline: false,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig10",
        caption: "Appendix HML (2K) incl. Crystalline-family: both mixes",
        ds: DsId::Hml,
        key_range_paper: 2_000,
        key_range_scaled: 2_000,
        workload: FigureWorkload::Both,
        include_hyaline: true,
        reclaim_freq: 24_576,
    },
    FigureSpec {
        id: "fig11",
        caption: "Appendix HMHT (6M) incl. Crystalline-family: both mixes",
        ds: DsId::Hmht,
        key_range_paper: 6_000_000,
        key_range_scaled: 60_000,
        workload: FigureWorkload::Both,
        include_hyaline: true,
        reclaim_freq: 24_576,
    },
];

/// Looks up a figure by id.
pub fn find(id: &str) -> Option<&'static FigureSpec> {
    FIGURES.iter().find(|f| f.id.eq_ignore_ascii_case(id))
}

/// Sweep options common to all figures.
#[derive(Clone, Debug)]
pub struct SweepOptions {
    /// Thread counts to sweep.
    pub threads: Vec<usize>,
    /// Duration per trial.
    pub duration: Duration,
    /// Use the paper's full-scale key ranges.
    pub paper_scale: bool,
    /// Scheme filter (None = the figure's default set).
    pub schemes: Option<Vec<SchemeId>>,
    /// Override key range.
    pub key_range: Option<u64>,
    /// Override retire-list threshold.
    pub reclaim_freq: Option<usize>,
}

impl Default for SweepOptions {
    fn default() -> Self {
        let ncpu = pop_runtime::affinity::num_cpus();
        SweepOptions {
            // Sweep to 2× CPUs: the last point exercises oversubscription,
            // as the paper does beyond 144 threads.
            threads: vec![1, ncpu, ncpu * 2],
            duration: Duration::from_millis(1000),
            paper_scale: false,
            schemes: None,
            key_range: None,
            reclaim_freq: None,
        }
    }
}

/// Runs a figure's full sweep, returning `(series-label, record)` rows.
pub fn run_figure(spec: &FigureSpec, opts: &SweepOptions) -> Vec<(String, RunRecord)> {
    let schemes: Vec<SchemeId> = opts.schemes.clone().unwrap_or_else(|| {
        if spec.include_hyaline {
            SchemeId::ALL.to_vec()
        } else {
            SchemeId::MAIN.to_vec()
        }
    });
    let key_range = opts.key_range.unwrap_or(if opts.paper_scale {
        spec.key_range_paper
    } else {
        spec.key_range_scaled
    });
    let reclaim_freq = opts.reclaim_freq.unwrap_or(spec.reclaim_freq);

    let workloads: Vec<(&str, WorkloadKind)> = match spec.workload {
        FigureWorkload::UpdateHeavy => {
            vec![("update", WorkloadKind::Uniform(OpMix::UPDATE_HEAVY))]
        }
        FigureWorkload::ReadHeavy => vec![("read", WorkloadKind::Uniform(OpMix::READ_HEAVY))],
        FigureWorkload::Both => vec![
            ("update", WorkloadKind::Uniform(OpMix::UPDATE_HEAVY)),
            ("read", WorkloadKind::Uniform(OpMix::READ_HEAVY)),
        ],
        FigureWorkload::LongRunningReads => vec![(
            "lrr",
            WorkloadKind::LongRunningReads {
                update_range: (key_range / 100).max(16),
            },
        )],
    };

    let mut out = Vec::new();
    for (wl_name, kind) in &workloads {
        for &threads in &opts.threads {
            for &scheme in &schemes {
                let cfg = RunConfig {
                    threads,
                    duration: opts.duration,
                    key_range,
                    kind: *kind,
                    prefill: true,
                    pin_threads: true,
                    seed: 0x505_u64 ^ threads as u64,
                    skew: 0.0,
                };
                let smr_cfg = SmrConfig::for_threads(threads).with_reclaim_freq(reclaim_freq);
                let rec = run_one(scheme, spec.ds, &cfg, smr_cfg);
                out.push((format!("{}/{}", spec.id, wl_name), rec));
            }
        }
    }
    out
}

/// Figure 4's size sweep (x-axis is structure size, not threads).
pub fn run_fig4_sweep(opts: &SweepOptions) -> Vec<(String, RunRecord)> {
    let spec = find("fig4").expect("fig4 spec");
    let sizes: Vec<u64> = if opts.paper_scale {
        vec![10_000, 50_000, 100_000, 400_000, 800_000]
    } else {
        vec![1_000, 5_000, 10_000, 50_000]
    };
    let threads = *opts.threads.iter().max().unwrap_or(&2);
    let schemes = opts
        .schemes
        .clone()
        .unwrap_or_else(|| SchemeId::MAIN.to_vec());
    let mut out = Vec::new();
    for &size in &sizes {
        for &scheme in &schemes {
            let cfg = RunConfig {
                threads,
                duration: opts.duration,
                key_range: size,
                kind: WorkloadKind::LongRunningReads {
                    update_range: (size / 100).max(16),
                },
                prefill: true,
                pin_threads: true,
                seed: 0xF164,
                skew: 0.0,
            };
            let smr_cfg = SmrConfig::for_threads(threads)
                .with_reclaim_freq(opts.reclaim_freq.unwrap_or(spec.reclaim_freq));
            let rec = run_one(scheme, spec.ds, &cfg, smr_cfg);
            out.push((format!("fig4/size{}", size), rec));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_paper_figure_is_specified() {
        let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
        for expect in [
            "fig1a", "fig1b", "fig1c", "fig2a", "fig2b", "fig3a", "fig3b", "fig4", "fig5", "fig6",
            "fig7", "fig8", "fig9", "fig10", "fig11",
        ] {
            assert!(ids.contains(&expect), "missing figure spec {expect}");
        }
    }

    #[test]
    fn specs_are_internally_consistent() {
        for f in FIGURES {
            assert!(f.key_range_scaled <= f.key_range_paper);
            assert!(f.key_range_scaled >= 1_000, "{} too small to measure", f.id);
            assert!(f.reclaim_freq >= 1);
        }
        // The paper's Crystalline comparison covers exactly HML and HMHT.
        let hyaline: Vec<&FigureSpec> = FIGURES.iter().filter(|f| f.include_hyaline).collect();
        assert_eq!(hyaline.len(), 2);
        assert!(hyaline.iter().any(|f| matches!(f.ds, DsId::Hml)));
        assert!(hyaline.iter().any(|f| matches!(f.ds, DsId::Hmht)));
    }

    #[test]
    fn find_is_case_insensitive() {
        assert!(find("FIG2A").is_some());
        assert!(find("nope").is_none());
    }

    #[test]
    fn fig4_uses_small_retire_threshold() {
        // The paper sets 2K for the long-running-reads experiment so
        // reclamation (and NBR restarts) fire constantly.
        assert_eq!(find("fig4").unwrap().reclaim_freq, 2_048);
    }
}
