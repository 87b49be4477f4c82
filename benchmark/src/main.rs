//! popbench — the repo's one benchmark. See `README.md`.
//!
//! ```text
//! popbench --workload W --seed N --seconds S --trace 0|1   one run (what BENCHMARK.json's command runs)
//! popbench set [--seed N] [--seconds S] --out FILE         all four workloads, untraced then traced
//! popbench compare A.json B.json                           same / better / worse / unresolved per metric × workload
//! popbench selfcheck [--seed N] [--seconds S]              two sets of this binary must compare `same`
//! popbench manifest                                        prints BENCHMARK.json
//! ```

mod adapter;
mod calib;
mod compare;
mod gen;
mod json;
mod layers;
mod manifest;
mod run;
mod stats;
mod trace;
mod trial;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use json::Json;
use run::{RunOut, RunSpec};

const DEFAULT_SEED: u64 = 1;

/// Parsed `--flag value` pairs and positional arguments.
struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut out = Args {
            flags: Vec::new(),
            positional: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = it.next().ok_or(format!("--{name} needs a value"))?;
                    out.flags.push((name.to_string(), value.clone()));
                }
                None => out.positional.push(a.clone()),
            }
        }
        Ok(out)
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    fn number<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{name} {v}: not a valid number")),
        }
    }

    fn only(&self, allowed: &[&str]) -> Result<(), String> {
        match self
            .flags
            .iter()
            .find(|(n, _)| !allowed.contains(&n.as_str()))
        {
            Some((n, _)) => Err(format!("unknown option --{n}")),
            None => Ok(()),
        }
    }

    fn seconds(&self) -> Result<f64, String> {
        let s: f64 = self.number("seconds", manifest::RUN_SECONDS as f64)?;
        if (0.05..=600.0).contains(&s) {
            Ok(s)
        } else {
            Err(format!("--seconds {s}: must be between 0.05 and 600"))
        }
    }
}

/// Refuses to measure on a host or in an environment that would make the
/// numbers mean something else.
fn preflight() -> Result<(), String> {
    // `SmrConfig::for_threads` applies POP_* overrides; a stray variable
    // would silently change the configuration under test.
    if let Some((name, _)) =
        std::env::vars_os().find(|(k, _)| k.to_string_lossy().starts_with("POP_"))
    {
        return Err(format!(
            "{} is set: popbench measures the library defaults, unset every POP_* variable",
            name.to_string_lossy()
        ));
    }
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cpus < gen::CLIENTS {
        return Err(format!(
            "{cpus} CPU available: the {} client threads need one each",
            gen::CLIENTS
        ));
    }
    Ok(())
}

fn meta(args: &Args, seed: u64, seconds: f64) -> Json {
    Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("rounds", Json::Num(run::ROUNDS as f64)),
        ("traced_rounds", Json::Num(run::TRACED_ROUNDS as f64)),
        ("clients", Json::Num(gen::CLIENTS as f64)),
        (
            "nproc",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("publish_mode", Json::Str(adapter::resolved_publish_mode())),
        ("reclaim_freq", Json::Num(adapter::RECLAIM_FREQ as f64)),
        ("rustc", Json::str(env!("POPBENCH_RUSTC"))),
        (
            "git_sha",
            Json::str(args.get("git-sha").unwrap_or("unknown")),
        ),
    ])
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, contents).map_err(|e| format!("{}: {e}", path.display()))
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// `{"meta": …, "workloads": {name: {"e2e" | "layers": run}}}`.
fn result_file(meta: Json, runs: &[(&str, &str, &RunOut)]) -> Json {
    let mut workloads: Vec<(String, Json)> = Vec::new();
    for (workload, part, out) in runs {
        let entry = (part.to_string(), out.to_json());
        match workloads.iter_mut().find(|(n, _)| n == workload) {
            Some((_, Json::Obj(parts))) => parts.push(entry),
            _ => workloads.push((workload.to_string(), Json::Obj(vec![entry]))),
        }
    }
    Json::obj([("meta", meta), ("workloads", Json::Obj(workloads))])
}

fn write_spans(dir: &Path, workload: &str, out: &RunOut) -> Result<(), String> {
    let mut text = out.span_lines.join("\n");
    text.push('\n');
    write_file(&dir.join(format!("{workload}.spans.jsonl")), &text)
}

/// One run of one workload; prints every metric by name and, as the last
/// line, the result object.
fn cmd_run(args: &Args) -> Result<bool, String> {
    args.only(&["workload", "seed", "seconds", "trace", "out-dir", "git-sha"])?;
    let name = args.get("workload").ok_or("--workload is required")?;
    let workload = workload::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workload::ALL.iter().map(|w| w.name).collect();
        format!("--workload {name}: expected one of {}", names.join(", "))
    })?;
    let traced = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace {t}: expected 0 or 1")),
    };
    let seed = args.number("seed", DEFAULT_SEED)?;
    let seconds = args.seconds()?;
    preflight()?;

    let out = run::run(&RunSpec {
        workload,
        seed,
        seconds,
        traced,
    });
    let dir = PathBuf::from(args.get("out-dir").unwrap_or("benchmark/out"));
    let (part, file) = if traced {
        write_spans(&dir, name, &out)?;
        ("layers", format!("{name}.trace.json"))
    } else {
        ("e2e", format!("{name}.json"))
    };
    let record = result_file(meta(args, seed, seconds), &[(name, part, &out)]);
    write_file(&dir.join(file), &record.render_pretty())?;

    print!("{}", out.table());
    println!(
        "# {name}: {} rounds x {:.0} ms slices in {:.1} s; attempted {} failed {}",
        out.rounds,
        out.slice.as_secs_f64() * 1e3,
        out.wall_s,
        out.attempted,
        out.failed
    );
    println!("{}", out.result_line());
    Ok(out.failed == 0)
}

/// All four workloads untraced, then traced. Returns the record and whether
/// every answer was right.
fn run_set(
    args: &Args,
    seed: u64,
    seconds: f64,
    spans_dir: Option<&Path>,
) -> Result<(Json, bool), String> {
    let mut outs = Vec::new();
    for traced in [false, true] {
        for w in &workload::ALL {
            eprintln!(
                "popbench: {} ({})",
                w.name,
                if traced { "traced" } else { "end to end" }
            );
            let out = run::run(&RunSpec {
                workload: w,
                seed,
                seconds,
                traced,
            });
            eprint!("{}", out.table());
            if let (true, Some(dir)) = (traced, spans_dir) {
                write_spans(dir, w.name, &out)?;
            }
            outs.push((w.name, if traced { "layers" } else { "e2e" }, out));
        }
    }
    let correct = outs.iter().all(|(_, _, o)| o.failed == 0);
    let runs: Vec<_> = outs.iter().map(|(w, p, o)| (*w, *p, o)).collect();
    Ok((result_file(meta(args, seed, seconds), &runs), correct))
}

fn cmd_set(args: &Args) -> Result<bool, String> {
    args.only(&["seed", "seconds", "out", "git-sha"])?;
    let path = PathBuf::from(args.get("out").ok_or("--out FILE is required")?);
    let (seed, seconds) = (args.number("seed", DEFAULT_SEED)?, args.seconds()?);
    preflight()?;
    let (record, correct) = run_set(args, seed, seconds, path.parent())?;
    write_file(&path, &record.render_pretty())?;
    println!("wrote {}", path.display());
    Ok(correct)
}

fn cmd_compare(args: &Args) -> Result<bool, String> {
    args.only(&["manifest"])?;
    let [a, b] = args.positional.as_slice() else {
        return Err("usage: popbench compare A.json B.json [--manifest BENCHMARK.json]".into());
    };
    let manifest = read_json(args.get("manifest").unwrap_or("BENCHMARK.json"))?;
    let rows = compare::compare(&manifest, &read_json(a)?, &read_json(b)?)?;
    print!("{}", compare::table(&rows));
    Ok(rows.iter().all(|r| r.verdict != compare::Verdict::Worse))
}

fn cmd_selfcheck(args: &Args) -> Result<bool, String> {
    args.only(&["seed", "seconds", "git-sha"])?;
    let (seed, seconds) = (args.number("seed", DEFAULT_SEED)?, args.seconds()?);
    preflight()?;
    let (a, correct_a) = run_set(args, seed, seconds, None)?;
    let (b, correct_b) = run_set(args, seed, seconds, None)?;
    let rows = compare::compare(&manifest::benchmark_json(), &a, &b)?;
    print!("{}", compare::table(&rows));
    let same = rows
        .iter()
        .filter(|r| r.verdict == compare::Verdict::Same)
        .count();
    println!("{same} of {} pairs are `same`", rows.len());
    Ok(correct_a && correct_b && same == rows.len())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (command, rest) = match argv.first().map(String::as_str) {
        Some(c @ ("set" | "compare" | "selfcheck" | "manifest")) => (c, &argv[1..]),
        _ => ("run", &argv[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match command {
        "set" => cmd_set(&args),
        "compare" => cmd_compare(&args),
        "selfcheck" => cmd_selfcheck(&args),
        "manifest" => {
            print!("{}", manifest::benchmark_json().render_pretty());
            Ok(true)
        }
        _ => cmd_run(&args),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("popbench: {e}");
            ExitCode::from(2)
        }
    }
}
