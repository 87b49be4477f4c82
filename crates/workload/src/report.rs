//! Benchmark result records, table rendering and CSV output.

use std::io::Write;
use std::path::Path;

/// One benchmark trial's results — the columns behind every figure.
#[derive(Clone, Debug)]
pub struct RunRecord {
    /// Reclamation scheme (paper plot label).
    pub scheme: &'static str,
    /// Data structure (paper plot label).
    pub ds: &'static str,
    /// Worker thread count.
    pub threads: usize,
    /// Key range (structure size = range / 2 after prefill).
    pub key_range: u64,
    /// Total operations completed in the measured phase.
    pub ops: u64,
    /// Contains operations completed.
    pub read_ops: u64,
    /// Insert/delete operations completed.
    pub update_ops: u64,
    /// Measured-phase wall time.
    pub seconds: f64,
    /// Throughput in millions of operations per second.
    pub throughput_mops: f64,
    /// Read throughput in Mops/s (Figure 4's y-axis numerator).
    pub read_mops: f64,
    /// Max retire-list length observed (Figs 1–2 right panels).
    pub max_retire_len: u64,
    /// Live-bytes high-water (stands in for max resident memory).
    pub peak_live_bytes: u64,
    /// Nodes retired but never freed (appendix figures' right panels).
    pub unreclaimed_nodes: u64,
    /// Signals sent by reclaimers.
    pub pings_sent: u64,
    /// Signals elided by the quiescent-thread filter.
    pub pings_skipped: u64,
    /// Reclamation passes that replaced the whole signal fan-out with one
    /// `membarrier(2)` heavy barrier (`PublishMode::Membarrier`).
    pub membarrier_passes: u64,
    /// Signals a membarrier pass would otherwise have sent (one per
    /// registered peer per pass) — the fan-out elided *wholesale*, distinct
    /// from the per-peer `pings_skipped` filter.
    pub signals_avoided: u64,
    /// Retirement batches sealed (retires per stats RMW = ops / batches).
    pub batches_sealed: u64,
    /// NBR restarts observed.
    pub restarts: u64,
    /// Publish-wait watchdog expiries (passes that gave up waiting on a
    /// laggard and completed conservatively).
    pub publish_wait_timeouts: u64,
    /// Pings whose delivery failed (dead or errored targets).
    pub pings_failed: u64,
    /// Dead participants reaped by reclaimer passes.
    pub participants_reaped: u64,
    /// Faults fired by the injection layer (0 unless compiled in and armed).
    pub faults_injected: u64,
    /// Recycled fill blocks dropped by the free-pool trim.
    pub pool_blocks_trimmed: u64,
    /// Nodes handed out by the owned slab arenas (vs the `Box` fallback).
    pub slab_allocs: u64,
    /// Wholly-freed retire blocks that settled against a single slab with
    /// one range test (the owned-arena fast path).
    pub slab_frees_whole: u64,
    /// VBR version aborts (reads restarted because the announcement went
    /// stale); 0 for every other scheme.
    pub version_aborts: u64,
    /// Slab payload bytes handed back to the OS (`madvise(MADV_DONTNEED)`)
    /// — a process-wide gauge sampled at snapshot time.
    pub slab_released_bytes: u64,
}

impl RunRecord {
    /// CSV header matching [`RunRecord::csv_row`].
    pub const CSV_HEADER: &'static str = "figure,ds,scheme,threads,key_range,ops,read_ops,update_ops,seconds,throughput_mops,read_mops,max_retire_len,peak_live_bytes,unreclaimed_nodes,pings_sent,pings_skipped,membarrier_passes,signals_avoided,batches_sealed,restarts,publish_wait_timeouts,pings_failed,participants_reaped,faults_injected,pool_blocks_trimmed,slab_allocs,slab_frees_whole,version_aborts,slab_released_bytes";

    /// Serializes this record as a CSV row tagged with `figure`.
    pub fn csv_row(&self, figure: &str) -> String {
        format!(
            "{figure},{},{},{},{},{},{},{},{:.3},{:.4},{:.4},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{},{}",
            self.ds,
            self.scheme,
            self.threads,
            self.key_range,
            self.ops,
            self.read_ops,
            self.update_ops,
            self.seconds,
            self.throughput_mops,
            self.read_mops,
            self.max_retire_len,
            self.peak_live_bytes,
            self.unreclaimed_nodes,
            self.pings_sent,
            self.pings_skipped,
            self.membarrier_passes,
            self.signals_avoided,
            self.batches_sealed,
            self.restarts,
            self.publish_wait_timeouts,
            self.pings_failed,
            self.participants_reaped,
            self.faults_injected,
            self.pool_blocks_trimmed,
            self.slab_allocs,
            self.slab_frees_whole,
            self.version_aborts,
            self.slab_released_bytes,
        )
    }
}

/// Renders records as an aligned table (one row per record).
pub fn render_table(records: &[RunRecord]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<14} {:<6} {:>7} {:>12} {:>10} {:>12} {:>14} {:>12} {:>8}\n",
        "scheme",
        "ds",
        "threads",
        "Mops/s",
        "readMops",
        "maxRetire",
        "peakLiveBytes",
        "unreclaimed",
        "pings"
    ));
    for r in records {
        out.push_str(&format!(
            "{:<14} {:<6} {:>7} {:>12.3} {:>10.3} {:>12} {:>14} {:>12} {:>8}\n",
            r.scheme,
            r.ds,
            r.threads,
            r.throughput_mops,
            r.read_mops,
            r.max_retire_len,
            r.peak_live_bytes,
            r.unreclaimed_nodes,
            r.pings_sent,
        ));
    }
    out
}

/// Appends records to a CSV file (creating it with a header if missing).
pub fn write_csv(path: &Path, figure: &str, records: &[RunRecord]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let exists = path.exists();
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    if !exists {
        writeln!(f, "{}", RunRecord::CSV_HEADER)?;
    }
    for r in records {
        writeln!(f, "{}", r.csv_row(figure))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> RunRecord {
        RunRecord {
            scheme: "HazardPtrPOP",
            ds: "HML",
            threads: 4,
            key_range: 2048,
            ops: 1_000_000,
            read_ops: 900_000,
            update_ops: 100_000,
            seconds: 1.0,
            throughput_mops: 1.0,
            read_mops: 0.9,
            max_retire_len: 64,
            peak_live_bytes: 123_456,
            unreclaimed_nodes: 12,
            pings_sent: 3,
            pings_skipped: 1,
            membarrier_passes: 7,
            signals_avoided: 21,
            batches_sealed: 4,
            restarts: 0,
            publish_wait_timeouts: 1,
            pings_failed: 1,
            participants_reaped: 1,
            faults_injected: 0,
            pool_blocks_trimmed: 2,
            slab_allocs: 99,
            slab_frees_whole: 8,
            version_aborts: 4,
            slab_released_bytes: 61_440,
        }
    }

    #[test]
    fn csv_roundtrip_field_count() {
        let row = rec().csv_row("fig2a");
        assert_eq!(
            row.split(',').count(),
            RunRecord::CSV_HEADER.split(',').count()
        );
        assert!(row.starts_with("fig2a,HML,HazardPtrPOP,4,"));
    }

    #[test]
    fn counter_columns_land_under_their_headers() {
        let row = rec().csv_row("fig2a");
        let headers: Vec<&str> = RunRecord::CSV_HEADER.split(',').collect();
        let values: Vec<&str> = row.split(',').collect();
        let col = |name: &str| {
            let i = headers
                .iter()
                .position(|h| *h == name)
                .unwrap_or_else(|| panic!("missing column {name}"));
            values[i]
        };
        assert_eq!(col("membarrier_passes"), "7");
        assert_eq!(col("signals_avoided"), "21");
        assert_eq!(col("pool_blocks_trimmed"), "2");
        assert_eq!(col("slab_allocs"), "99");
        assert_eq!(col("slab_frees_whole"), "8");
        assert_eq!(col("version_aborts"), "4");
        assert_eq!(col("slab_released_bytes"), "61440");
    }

    #[test]
    fn table_contains_all_records() {
        let t = render_table(&[rec(), rec()]);
        assert_eq!(t.matches("HazardPtrPOP").count(), 2);
        assert!(t.contains("Mops/s"));
    }

    #[test]
    fn csv_file_written_with_header_once() {
        let dir = std::env::temp_dir().join("pop_report_test");
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("out.csv");
        write_csv(&path, "fig1a", &[rec()]).unwrap();
        write_csv(&path, "fig1a", &[rec()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.matches("figure,ds").count(), 1, "single header");
        assert_eq!(content.lines().count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
