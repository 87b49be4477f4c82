//! Pivots matrix [`RunRecord`]s into gnuplot-ready `.dat` files.
//!
//! One file family per figure tag (see
//! [`crate::matrix::MatrixCell::figure_tag`]): a `-throughput.dat` and a
//! `-retire.dat` for every figure (the paper's left/right panels), plus a
//! `-readmops.dat` for the long-running-reads figures whose y-axis is
//! read throughput (Figure 4). Each file is a matrix with one row per
//! thread count and one column per scheme:
//!
//! ```text
//! # threads EBR HP HazardPtrPOP ...
//! 1 4.2 3.1 4.0 ...
//! 2 7.9 5.8 7.7 ...
//! ```
//!
//! Missing cells (a scheme that skipped a thread count) render as `-`,
//! which gnuplot treats as a gap rather than a zero.

use std::collections::BTreeSet;
use std::io::Write;
use std::path::{Path, PathBuf};

use pop_workload::RunRecord;

/// Metric column to pivot on.
#[derive(Clone, Copy)]
enum Metric {
    Throughput,
    MaxRetireLen,
    ReadMops,
}

impl Metric {
    fn suffix(self) -> &'static str {
        match self {
            Metric::Throughput => "throughput",
            Metric::MaxRetireLen => "retire",
            Metric::ReadMops => "readmops",
        }
    }

    fn value(self, rec: &RunRecord) -> String {
        match self {
            Metric::Throughput => format!("{:.4}", rec.throughput_mops),
            Metric::MaxRetireLen => rec.max_retire_len.to_string(),
            Metric::ReadMops => format!("{:.4}", rec.read_mops),
        }
    }
}

fn render_one(
    dir: &Path,
    figure: &str,
    metric: Metric,
    records: &[&RunRecord],
) -> std::io::Result<PathBuf> {
    // Column order: first-appearance order, so plots list schemes the way
    // the matrix ran them (paper order), not alphabetically.
    let mut schemes: Vec<&str> = Vec::new();
    for r in records {
        if !schemes.contains(&r.scheme) {
            schemes.push(r.scheme);
        }
    }
    let threads: BTreeSet<usize> = records.iter().map(|r| r.threads).collect();

    let mut out = String::new();
    out.push_str("# threads");
    for s in &schemes {
        out.push(' ');
        out.push_str(s);
    }
    out.push('\n');
    for &t in &threads {
        out.push_str(&t.to_string());
        for s in &schemes {
            out.push(' ');
            match records.iter().find(|r| r.threads == t && r.scheme == *s) {
                Some(r) => out.push_str(&metric.value(r)),
                None => out.push('-'),
            }
        }
        out.push('\n');
    }

    let path = dir.join(format!("{figure}-{}.dat", metric.suffix()));
    let mut f = std::fs::File::create(&path)?;
    f.write_all(out.as_bytes())?;
    Ok(path)
}

/// Renders every figure's `.dat` family under `dir` from `(figure_tag,
/// record)` pairs. Returns the paths written.
pub fn render_figure_data(
    records: &[(String, RunRecord)],
    dir: &Path,
) -> std::io::Result<Vec<PathBuf>> {
    std::fs::create_dir_all(dir)?;
    // Figure order = first appearance in the record stream.
    let mut figures: Vec<&str> = Vec::new();
    for (tag, _) in records {
        if !figures.contains(&tag.as_str()) {
            figures.push(tag);
        }
    }
    let mut paths = Vec::new();
    for fig in figures {
        let group: Vec<&RunRecord> = records
            .iter()
            .filter(|(tag, _)| tag == fig)
            .map(|(_, r)| r)
            .collect();
        paths.push(render_one(dir, fig, Metric::Throughput, &group)?);
        paths.push(render_one(dir, fig, Metric::MaxRetireLen, &group)?);
        // Read throughput is the headline metric only for the
        // long-running-reads figures (fig4 and its `ext-*-lrr` kin).
        if fig == "fig4" || fig.contains("-lrr") {
            paths.push(render_one(dir, fig, Metric::ReadMops, &group)?);
        }
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(scheme: &'static str, threads: usize, mops: f64) -> RunRecord {
        RunRecord {
            scheme,
            ds: "HML",
            threads,
            key_range: 256,
            ops: 1000,
            read_ops: 900,
            update_ops: 100,
            seconds: 0.1,
            throughput_mops: mops,
            read_mops: mops * 0.9,
            max_retire_len: 42,
            peak_live_bytes: 0,
            unreclaimed_nodes: 0,
            pings_sent: 0,
            pings_skipped: 0,
            membarrier_passes: 0,
            signals_avoided: 0,
            batches_sealed: 0,
            epoch_decay_steps: 0,
            orphans_stolen: 0,
            restarts: 0,
            publish_wait_timeouts: 0,
            pings_failed: 0,
            participants_reaped: 0,
            faults_injected: 0,
            pressure_soft_trips: 0,
            pressure_hard_trips: 0,
            pressure_emergency_trips: 0,
            blocks_quarantined: 0,
            blocks_unquarantined: 0,
            pool_blocks_trimmed: 0,
            slab_allocs: 0,
            slab_frees_whole: 0,
            version_aborts: 0,
            slab_released_bytes: 0,
        }
    }

    #[test]
    fn renders_threads_by_scheme_matrix_with_gaps() {
        let dir = std::env::temp_dir().join("pop_figure_data_test");
        let _ = std::fs::remove_dir_all(&dir);
        let records = vec![
            ("fig2a".to_string(), rec("EBR", 2, 1.0)),
            ("fig2a".to_string(), rec("EBR", 4, 2.0)),
            ("fig2a".to_string(), rec("HazardPtrPOP", 2, 0.9)),
            // HazardPtrPOP skipped threads=4 → "-" gap.
            ("fig4".to_string(), rec("EBR", 2, 3.0)),
        ];
        let paths = render_figure_data(&records, &dir).unwrap();
        // fig2a gets throughput+retire; fig4 additionally gets readmops.
        assert_eq!(paths.len(), 5);

        let th = std::fs::read_to_string(dir.join("fig2a-throughput.dat")).unwrap();
        let lines: Vec<&str> = th.lines().collect();
        assert_eq!(lines[0], "# threads EBR HazardPtrPOP");
        assert_eq!(lines[1], "2 1.0000 0.9000");
        assert_eq!(lines[2], "4 2.0000 -");

        let retire = std::fs::read_to_string(dir.join("fig2a-retire.dat")).unwrap();
        assert!(retire.lines().nth(1).unwrap().contains("42"));

        let rm = std::fs::read_to_string(dir.join("fig4-readmops.dat")).unwrap();
        assert_eq!(rm.lines().nth(1).unwrap(), "2 2.7000");
        assert!(!dir.join("fig2a-readmops.dat").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lrr_extension_tags_also_get_readmops() {
        let dir = std::env::temp_dir().join("pop_figure_data_lrr_test");
        let _ = std::fs::remove_dir_all(&dir);
        let records = vec![("ext-skl-lrr".to_string(), rec("EBR", 2, 1.0))];
        let paths = render_figure_data(&records, &dir).unwrap();
        assert!(paths
            .iter()
            .any(|p| p.ends_with("ext-skl-lrr-readmops.dat")));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
