//! The gcln benchmark: one command that runs a workload, checks every
//! answer, and prints every metric by name with its unit.
//!
//! ```text
//! perfbench --workload <nla_heavy|linear_suite|serve_open> --seed <n>
//!           --seconds <s> --trace <0|1> [--state-dir <dir>]
//! ```
//!
//! The last line of standard output is the result object
//! (`correct`, `attempted`, `failed`, `metrics`). `--trace 0` reports
//! the end-to-end metrics; `--trace 1` makes a separate traced run and
//! reports the per-layer metrics. Lines before it are a human summary.
//! The exit code is 0 only when every answer was correct.

mod report;
mod schedule;
mod serve;
mod solo;
mod stats;

use report::Report;
use std::path::{Path, PathBuf};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    state_dir: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut state_dir = PathBuf::from(".bench_build/perfbench");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad("a positive number"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            "--state-dir" => state_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !["nla_heavy", "linear_suite", "serve_open"].contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        state_dir,
    })
}

fn main() {
    // Every workload runs with one rayon thread: the scheduler's workers
    // are the only parallelism, so timings do not depend on how many
    // cores the machine lends to nested fan-outs.
    std::env::set_var("RAYON_NUM_THREADS", "1");
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(2);
        }
    };
    std::fs::create_dir_all(&args.state_dir).expect("create the state directory");
    let mut report = Report::default();
    if args.workload == "serve_open" {
        serve::run(args.seed, args.seconds, args.trace, &args.state_dir, &mut report);
    } else {
        solo::run(&args.workload, args.seed, args.seconds, args.trace, &mut report);
    }
    if args.trace {
        let lines = rust_lines(Path::new("."));
        report.note(format!("{:<12} {lines:>10}", "rust lines"));
        report.metric("code.rust_lines", lines as f64);
        repeat_guard(&args, &mut report);
    } else {
        report.metric("peak_rss_mb", peak_rss_mb());
    }
    println!("{}", report.render(args.trace));
    std::process::exit(if report.correct() { 0 } else { 1 });
}

/// The deterministic counts of a traced run must read the same in every
/// run of one build: the first traced run of a build records them under
/// the state directory, and later runs compare against that record.
fn repeat_guard(args: &Args, report: &mut Report) {
    let Some(counts) = report.count_line() else { return };
    let build = std::env::current_exe()
        .and_then(std::fs::read)
        .map(|bytes| gcln_engine::cache::fnv1a64(&bytes))
        .expect("read the running executable");
    let path = args.state_dir.join(format!("counts-{}.txt", args.workload));
    let line = format!("{build:016x} {counts}");
    match std::fs::read_to_string(&path) {
        Ok(old) if old.split_whitespace().next() == line.split_whitespace().next() => {
            if old.trim() != line {
                report.error(format!(
                    "deterministic counts changed between runs of one build:\n  was {}\n  now {line}",
                    old.trim()
                ));
            }
        }
        _ => std::fs::write(&path, &line).expect("record the counts"),
    }
}

/// Peak resident set size of this process, MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Lines of Rust in the repository outside `vendor/`, build output and
/// this benchmark.
fn rust_lines(dir: &Path) -> usize {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    let mut lines = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.starts_with('.') || ["vendor", "target", "perfbench"].contains(&name.as_ref()) {
            continue;
        }
        match entry.file_type() {
            Ok(t) if t.is_dir() => lines += rust_lines(&path),
            Ok(t) if t.is_file() && name.ends_with(".rs") => {
                lines += std::fs::read_to_string(&path).map_or(0, |s| s.lines().count());
            }
            _ => {}
        }
    }
    lines
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_are_checked() {
        let ok =
            args(&["--workload", "nla_heavy", "--seed", "3", "--seconds", "30", "--trace", "1"]);
        let ok = ok.expect("a full command line parses");
        assert_eq!((ok.seed, ok.seconds, ok.trace), (3, 30.0, true));
        assert!(args(&["--workload", "other", "--seed", "3", "--seconds", "30", "--trace", "0"])
            .is_err());
        assert!(args(&["--workload", "nla_heavy", "--seed", "3", "--seconds", "30"]).is_err());
        assert!(args(&[
            "--workload",
            "nla_heavy",
            "--seed",
            "x",
            "--seconds",
            "30",
            "--trace",
            "0"
        ])
        .is_err());
        assert!(args(&[
            "--workload",
            "nla_heavy",
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0"
        ])
        .is_err());
    }
}
