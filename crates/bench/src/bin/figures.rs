//! `figures` — regenerates every table and figure from the paper.
//!
//! ```text
//! figures <fig1a|fig1b|fig1c|fig2a|fig2b|fig3a|fig3b|fig4|fig5..fig11|
//!          robustness|ablation-freq|all|quick> [options]
//!
//! Options:
//!   --threads 1,2,4      thread counts to sweep (default: 1,N,2N for N CPUs)
//!   --seconds 1.0        duration per trial
//!   --size N             override key range
//!   --reclaim-freq N     override retire-list threshold
//!   --schemes A,B,C      scheme filter (names as in the paper's plots)
//!   --paper              use the paper's full-scale sizes
//!   --csv PATH           append rows to a CSV file (default results/pop.csv)
//! ```

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use pop_bench::figures::{find, run_fig4_sweep, run_figure, SweepOptions, FIGURES};
use pop_bench::{run_one, DsId, SchemeId};
use pop_core::{Ebr, EpochPop, HazardPtrPop, Smr, SmrConfig};
use pop_ds::hml::HmList;
use pop_ds::ConcurrentMap;
use pop_workload::{report, OpMix, RunConfig, RunRecord, WorkloadKind};

fn usage() -> ! {
    let ids: Vec<&str> = FIGURES.iter().map(|f| f.id).collect();
    eprintln!(
        "usage: figures <{} | robustness | ablation-freq | latency | all | quick> \
         [--threads 1,2,4] [--seconds 1.0] [--size N] [--reclaim-freq N] \
         [--schemes A,B,C] [--paper] [--csv PATH]",
        ids.join("|")
    );
    std::process::exit(2);
}

struct Cli {
    command: String,
    opts: SweepOptions,
    csv: PathBuf,
}

fn parse_cli() -> Cli {
    let mut args = std::env::args().skip(1);
    let Some(command) = args.next() else { usage() };
    let mut opts = SweepOptions::default();
    let mut csv = PathBuf::from("results/pop.csv");
    while let Some(a) = args.next() {
        match a.as_str() {
            "--threads" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.threads = v
                    .split(',')
                    .map(|s| s.trim().parse().expect("bad --threads"))
                    .collect();
            }
            "--seconds" => {
                let v: f64 = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .parse()
                    .expect("bad --seconds");
                opts.duration = Duration::from_secs_f64(v);
            }
            "--size" => {
                opts.key_range = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .expect("bad --size"),
                );
            }
            "--reclaim-freq" => {
                opts.reclaim_freq = Some(
                    args.next()
                        .unwrap_or_else(|| usage())
                        .parse()
                        .expect("bad --reclaim-freq"),
                );
            }
            "--schemes" => {
                let v = args.next().unwrap_or_else(|| usage());
                opts.schemes = Some(
                    v.split(',')
                        .map(|s| {
                            SchemeId::parse(s.trim())
                                .unwrap_or_else(|| panic!("unknown scheme {s}"))
                        })
                        .collect(),
                );
            }
            "--paper" => opts.paper_scale = true,
            "--csv" => csv = PathBuf::from(args.next().unwrap_or_else(|| usage())),
            _ => usage(),
        }
    }
    Cli { command, opts, csv }
}

fn emit(csv: &Path, rows: Vec<(String, RunRecord)>) {
    let records: Vec<RunRecord> = rows.iter().map(|(_, r)| r.clone()).collect();
    println!("{}", report::render_table(&records));
    for (fig, rec) in &rows {
        report::write_csv(csv, fig, std::slice::from_ref(rec)).expect("csv write");
    }
    println!("rows appended to {}\n", csv.display());
}

/// The robustness demonstration (paper §1/§4.2, and the premise of
/// EpochPOP): one reader stalls inside an operation while writers churn;
/// EBR's garbage grows without bound, the POP schemes stay bounded.
fn run_robustness(opts: &SweepOptions, csv: &Path) {
    fn stalled_trial<S: Smr>(duration: Duration) -> RunRecord {
        let threads = 2usize;
        let smr_cfg = SmrConfig::for_threads(threads + 1).with_reclaim_freq(512);
        let smr = S::new(smr_cfg);
        let map = Arc::new(HmList::with_domain(Arc::clone(&smr)));
        let stop = Arc::new(AtomicBool::new(false));

        // The stalled reader: enters an operation and sleeps through the
        // whole trial, pinning its announced epoch (if the scheme has one).
        let stall = {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let reg = map.smr().register(2);
                map.smr().begin_op(2);
                while !stop.load(Ordering::Acquire) {
                    std::thread::sleep(Duration::from_millis(5));
                }
                map.smr().end_op(2);
                drop(reg);
            })
        };
        std::thread::sleep(Duration::from_millis(20));

        let mut handles = Vec::new();
        for tid in 0..threads {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            handles.push(std::thread::spawn(move || {
                let reg = map.smr().register(tid);
                let mut k = tid as u64;
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    map.insert(tid, k % 4096, k);
                    map.remove(tid, k % 4096);
                    k = k.wrapping_add(7);
                    ops += 2;
                }
                drop(reg);
                ops
            }));
        }
        std::thread::sleep(duration);
        stop.store(true, Ordering::Release);
        let mut ops = 0;
        for h in handles {
            ops += h.join().unwrap();
        }
        stall.join().unwrap();
        let stats = smr.stats().snapshot();
        RunRecord {
            scheme: S::NAME,
            ds: "HML",
            threads,
            key_range: 4096,
            ops,
            read_ops: 0,
            update_ops: ops,
            seconds: duration.as_secs_f64(),
            throughput_mops: ops as f64 / duration.as_secs_f64() / 1e6,
            read_mops: 0.0,
            max_retire_len: stats.max_retire_len,
            peak_live_bytes: 0,
            unreclaimed_nodes: stats.unreclaimed_nodes(),
            pings_sent: stats.pings_sent,
            pings_skipped: stats.pings_skipped,
            membarrier_passes: stats.membarrier_passes,
            signals_avoided: stats.signals_avoided,
            batches_sealed: stats.batches_sealed,
            restarts: stats.restarts,
            publish_wait_timeouts: stats.publish_wait_timeouts,
            pings_failed: stats.pings_failed,
            participants_reaped: stats.participants_reaped,
            faults_injected: stats.faults_injected,
            pool_blocks_trimmed: stats.pool_blocks_trimmed,
            slab_allocs: stats.slab_allocs,
            slab_frees_whole: stats.slab_frees_whole,
            version_aborts: stats.version_aborts,
            slab_released_bytes: stats.slab_released_bytes,
        }
    }

    println!("robustness: 2 writers churn while 1 reader stalls in-op");
    println!("expect: EBR unreclaimed grows with work; POP schemes bounded\n");
    let rows = vec![
        (
            "robustness".to_string(),
            stalled_trial::<Ebr>(opts.duration),
        ),
        (
            "robustness".to_string(),
            stalled_trial::<HazardPtrPop>(opts.duration),
        ),
        (
            "robustness".to_string(),
            stalled_trial::<EpochPop>(opts.duration),
        ),
    ];
    emit(csv, rows);
}

/// Ablation A2: retire-list threshold sweep (cf. the paper's footnote on
/// retire-list sizing and Kim et al. 2024).
fn run_ablation_freq(opts: &SweepOptions, csv: &Path) {
    let threads = *opts.threads.iter().max().unwrap_or(&2);
    let schemes = opts.schemes.clone().unwrap_or_else(|| {
        vec![
            SchemeId::Hp,
            SchemeId::HazardPtrPop,
            SchemeId::EpochPop,
            SchemeId::Ebr,
            SchemeId::NbrPlus,
        ]
    });
    let mut rows = Vec::new();
    for freq in [512usize, 2_048, 8_192, 24_576] {
        for &scheme in &schemes {
            let cfg = RunConfig {
                threads,
                duration: opts.duration,
                key_range: 2_000,
                kind: WorkloadKind::Uniform(OpMix::UPDATE_HEAVY),
                prefill: true,
                pin_threads: true,
                seed: 0xAB2,
                skew: 0.0,
            };
            let smr_cfg = SmrConfig::for_threads(threads).with_reclaim_freq(freq);
            let rec = run_one(scheme, DsId::Hml, &cfg, smr_cfg);
            rows.push((format!("ablation-freq/R{}", freq), rec));
        }
    }
    emit(csv, rows);
}

/// Ablation A3 (extension): Zipf key skew — does POP's advantage survive
/// contention on hot keys? The paper evaluates uniform keys only.
fn run_ablation_skew(opts: &SweepOptions, csv: &Path) {
    let threads = *opts.threads.iter().max().unwrap_or(&2);
    let schemes = opts.schemes.clone().unwrap_or_else(|| {
        vec![
            SchemeId::Ebr,
            SchemeId::Hp,
            SchemeId::HazardPtrPop,
            SchemeId::EpochPop,
        ]
    });
    let mut rows = Vec::new();
    for skew in [0.0f64, 0.5, 0.9, 1.2] {
        for &scheme in &schemes {
            let cfg = RunConfig {
                threads,
                duration: opts.duration,
                key_range: 8_192,
                kind: WorkloadKind::Uniform(OpMix::UPDATE_HEAVY),
                prefill: true,
                pin_threads: true,
                seed: 0xAB3,
                skew,
            };
            let smr_cfg = SmrConfig::for_threads(threads)
                .with_reclaim_freq(opts.reclaim_freq.unwrap_or(2_048));
            let rec = run_one(scheme, DsId::Hml, &cfg, smr_cfg);
            rows.push((format!("ablation-skew/s{:.1}", skew), rec));
        }
    }
    emit(csv, rows);
}

/// Extension experiment: per-operation tail latency under a read-heavy
/// mix — do reclamation pings surface at readers' p99/p999?
fn run_latency_tables(opts: &SweepOptions) {
    let threads = *opts.threads.iter().max().unwrap_or(&2);
    let schemes = opts.schemes.clone().unwrap_or_else(|| {
        vec![
            SchemeId::Nr,
            SchemeId::Ebr,
            SchemeId::Hp,
            SchemeId::HazardPtrPop,
            SchemeId::EpochPop,
            SchemeId::NbrPlus,
        ]
    });
    println!(
        "read-heavy HML, {} threads, retire threshold {} — per-op latency (ns)\n",
        threads,
        opts.reclaim_freq.unwrap_or(2_048)
    );
    println!(
        "{:<14} {:>9} {:>9} {:>9} {:>10} | {:>9} {:>9}",
        "scheme", "read p50", "read p99", "p999", "max", "upd p50", "upd p99"
    );
    for scheme in schemes {
        let cfg = RunConfig {
            threads,
            duration: opts.duration,
            key_range: 2_000,
            kind: WorkloadKind::Uniform(OpMix::READ_HEAVY),
            prefill: true,
            pin_threads: true,
            seed: 0x1A7,
            skew: 0.0,
        };
        let smr_cfg =
            SmrConfig::for_threads(threads).with_reclaim_freq(opts.reclaim_freq.unwrap_or(2_048));
        let rep = pop_bench::run_latency_one(scheme, DsId::Hml, &cfg, smr_cfg);
        let (rp50, rp99, rp999, rmax) = rep.read_ns;
        let (up50, up99, _, _) = rep.update_ns;
        println!(
            "{:<14} {:>9} {:>9} {:>9} {:>10} | {:>9} {:>9}",
            rep.scheme, rp50, rp99, rp999, rmax, up50, up99
        );
    }
    println!("\n(samples every 16th op; ~6%% bucket error)");
}

fn main() {
    let cli = parse_cli();
    let cmd = cli.command.to_ascii_lowercase();
    match cmd.as_str() {
        "all" => {
            for spec in FIGURES {
                println!("=== {} — {} ===", spec.id, spec.caption);
                let rows = if spec.id == "fig4" {
                    run_fig4_sweep(&cli.opts)
                } else {
                    run_figure(spec, &cli.opts)
                };
                emit(&cli.csv, rows);
            }
            run_robustness(&cli.opts, &cli.csv);
            run_ablation_freq(&cli.opts, &cli.csv);
        }
        "quick" => {
            let mut opts = cli.opts.clone();
            opts.duration = Duration::from_millis(200);
            opts.threads = vec![2];
            for id in ["fig2a", "fig2b", "fig1a", "fig1b", "fig1c"] {
                let spec = find(id).unwrap();
                println!("=== {} — {} ===", spec.id, spec.caption);
                emit(&cli.csv, run_figure(spec, &opts));
            }
        }
        "robustness" => run_robustness(&cli.opts, &cli.csv),
        "ablation-freq" => run_ablation_freq(&cli.opts, &cli.csv),
        "ablation-skew" => run_ablation_skew(&cli.opts, &cli.csv),
        "latency" => run_latency_tables(&cli.opts),
        "fig4" => {
            let rows = run_fig4_sweep(&cli.opts);
            emit(&cli.csv, rows);
        }
        other => match find(other) {
            Some(spec) => {
                println!("=== {} — {} ===", spec.id, spec.caption);
                emit(&cli.csv, run_figure(spec, &cli.opts));
            }
            None => usage(),
        },
    }
}
