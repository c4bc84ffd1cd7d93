//! The unified `gcln` command-line front end.
//!
//! One binary replaces the former per-experiment zoo:
//!
//! ```text
//! gcln run <file.loop|registry-name> [--fast] [--json] [--deadline S]
//!          [--steps N] [--max-degree D] [--range LO:HI ...]
//! gcln suite nla|linear [--fast] [--json] [--limit N] [--expect N] [--workers N] [name ...]
//! gcln table2 [--fast] [--json] [--expect N] [--workers N] [name ...]
//! gcln table3 [--all | name ...]
//! gcln table4 [--runs N]
//! gcln code2inv [--limit N] [--json] [--expect N] [--workers N]
//! gcln table1                 # alias of `fig 4`
//! gcln fig <1|2|4|6|7|8|10> [args]
//! gcln inspect <problem> [--bounds]
//! gcln serve [--port P] [--workers N] [--queue-cap N] [--journal PATH] [--rate-limit RPS]
//!            [--journal-fsync always|never] [--faults SPEC]
//! ```
//!
//! `--faults` (or the `GCLN_FAULTS` environment variable) arms
//! deterministic fault injection for chaos testing, e.g.
//! `seed=42,sched.task_panic=0.1,journal.torn_write=0.05:3`.
//!
//! Exit codes: `0` success, `1` usage/parse errors, `2` the checker
//! rejected (or the job stopped early) on `gcln run`, `3` a suite run
//! fell short of its `--expect N` threshold.

use crate::driver::SuiteSummary;
use crate::{figs, tables};
use gcln_engine::events::json_string;
use gcln_engine::{Engine, Event, Job, PipelineConfig, ProblemSpec};
use std::time::Duration;

const USAGE: &str = "usage: gcln <run|suite|table1|table2|table3|table4|code2inv|fig|inspect|serve> [args]
  run <file.loop|name> [--fast] [--json] [--deadline S] [--steps N] [--max-degree D] [--range LO:HI ...]
  suite <nla|linear>   [--fast] [--json] [--limit N] [--expect N] [--workers N] [name ...]
  table2               [--fast] [--json] [--expect N] [--workers N] [name ...]
  table3               [--all | name ...]
  table4               [--runs N]
  code2inv             [--limit N] [--json] [--expect N] [--workers N]
  fig <1|2|4|6|7|8|10> [args]
  inspect <problem>    [--bounds]
  serve                [--port P] [--workers N] [--queue-cap N] [--journal PATH] [--rate-limit RPS]
                       [--journal-fsync always|never] [--faults SPEC]";

/// Parsed common flags; non-flag arguments are collected in order.
#[derive(Debug, Default)]
struct Flags {
    fast: bool,
    json: bool,
    bounds: bool,
    all: bool,
    deadline: Option<f64>,
    steps: Option<u64>,
    max_degree: Option<u32>,
    ranges: Vec<(i128, i128)>,
    limit: Option<usize>,
    expect: Option<usize>,
    runs: Option<u64>,
    port: Option<u16>,
    workers: Option<usize>,
    queue_cap: Option<usize>,
    journal: Option<String>,
    rate_limit: Option<f64>,
    journal_fsync: Option<String>,
    faults: Option<String>,
    rest: Vec<String>,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut f = Flags::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut num = |name: &str| {
            it.next().map(|v| v.to_string()).ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--fast" => f.fast = true,
            "--json" => f.json = true,
            "--bounds" => f.bounds = true,
            "--all" => f.all = true,
            "--deadline" => {
                let secs: f64 =
                    num("--deadline")?.parse().map_err(|_| "--deadline needs seconds")?;
                if !secs.is_finite() || secs < 0.0 {
                    return Err("--deadline needs a non-negative number of seconds".into());
                }
                f.deadline = Some(secs);
            }
            "--steps" => {
                f.steps = Some(num("--steps")?.parse().map_err(|_| "--steps needs an integer")?)
            }
            "--max-degree" => {
                f.max_degree = Some(
                    num("--max-degree")?.parse().map_err(|_| "--max-degree needs an integer")?,
                )
            }
            "--range" => {
                let spec = num("--range")?;
                let (lo, hi) = spec.split_once(':').ok_or("--range format is LO:HI")?;
                f.ranges.push((
                    lo.parse().map_err(|_| "range lo must be an integer")?,
                    hi.parse().map_err(|_| "range hi must be an integer")?,
                ));
            }
            "--limit" => {
                f.limit = Some(num("--limit")?.parse().map_err(|_| "--limit needs an integer")?)
            }
            "--expect" => {
                f.expect = Some(num("--expect")?.parse().map_err(|_| "--expect needs an integer")?)
            }
            "--runs" => {
                f.runs = Some(num("--runs")?.parse().map_err(|_| "--runs needs an integer")?)
            }
            "--port" => {
                f.port = Some(num("--port")?.parse().map_err(|_| "--port needs a port number")?)
            }
            "--workers" => {
                f.workers =
                    Some(num("--workers")?.parse().map_err(|_| "--workers needs an integer")?)
            }
            "--queue-cap" => {
                f.queue_cap =
                    Some(num("--queue-cap")?.parse().map_err(|_| "--queue-cap needs an integer")?)
            }
            "--journal" => f.journal = Some(num("--journal")?),
            "--journal-fsync" => {
                let policy = num("--journal-fsync")?;
                if policy != "always" && policy != "never" {
                    return Err(format!("--journal-fsync takes always|never (got `{policy}`)"));
                }
                f.journal_fsync = Some(policy);
            }
            "--faults" => f.faults = Some(num("--faults")?),
            "--rate-limit" => {
                let rps: f64 =
                    num("--rate-limit")?.parse().map_err(|_| "--rate-limit needs requests/sec")?;
                if !rps.is_finite() || rps <= 0.0 {
                    return Err("--rate-limit needs a positive requests/sec".into());
                }
                f.rate_limit = Some(rps);
            }
            other if other.starts_with("--") => return Err(format!("unknown flag {other}")),
            other => f.rest.push(other.to_string()),
        }
    }
    Ok(f)
}

impl Flags {
    /// Rejects flags the selected subcommand does not consume — a
    /// silently-ignored `--expect` or `--json` on the wrong subcommand
    /// would defeat CI gating.
    fn check_allowed(&self, cmd: &str, allowed: &[&str]) -> Result<(), String> {
        let set: &[(&str, bool)] = &[
            ("--fast", self.fast),
            ("--json", self.json),
            ("--bounds", self.bounds),
            ("--all", self.all),
            ("--deadline", self.deadline.is_some()),
            ("--steps", self.steps.is_some()),
            ("--max-degree", self.max_degree.is_some()),
            ("--range", !self.ranges.is_empty()),
            ("--limit", self.limit.is_some()),
            ("--expect", self.expect.is_some()),
            ("--runs", self.runs.is_some()),
            ("--port", self.port.is_some()),
            ("--workers", self.workers.is_some()),
            ("--queue-cap", self.queue_cap.is_some()),
            ("--journal", self.journal.is_some()),
            ("--rate-limit", self.rate_limit.is_some()),
            ("--journal-fsync", self.journal_fsync.is_some()),
            ("--faults", self.faults.is_some()),
        ];
        for (name, used) in set {
            if *used && !allowed.contains(name) {
                return Err(format!("`gcln {cmd}` does not take {name}"));
            }
        }
        Ok(())
    }
}

/// Entry point; returns the process exit code.
pub fn main_with_args(args: &[String]) -> i32 {
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return 1;
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return 1;
        }
    };
    let allowed: &[&str] = match cmd.as_str() {
        "run" => &["--fast", "--json", "--deadline", "--steps", "--max-degree", "--range"],
        "suite" => &["--fast", "--json", "--limit", "--expect", "--workers"],
        "table2" => &["--fast", "--json", "--expect", "--workers"],
        "table3" => &["--all"],
        "table4" => &["--runs"],
        "code2inv" => &["--limit", "--json", "--expect", "--workers"],
        "inspect" => &["--bounds"],
        "serve" => &[
            "--port",
            "--workers",
            "--queue-cap",
            "--journal",
            "--rate-limit",
            "--journal-fsync",
            "--faults",
        ],
        _ => &[],
    };
    if let Err(e) = flags.check_allowed(cmd, allowed) {
        eprintln!("error: {e}\n{USAGE}");
        return 1;
    }
    match cmd.as_str() {
        "run" => cmd_run(&flags),
        "suite" => {
            let Some((which, filter)) = flags.rest.split_first() else {
                eprintln!("error: suite needs `nla` or `linear`\n{USAGE}");
                return 1;
            };
            match tables::suite(
                which,
                flags.fast,
                flags.json,
                flags.limit.unwrap_or(usize::MAX),
                filter,
                flags.workers,
            ) {
                Some(summary) => expect_code(&summary, flags.expect),
                None => {
                    eprintln!("error: unknown suite `{which}` (use nla|linear)");
                    1
                }
            }
        }
        "table2" => {
            let summary = tables::table2(&flags.rest, flags.fast, flags.json, flags.workers);
            expect_code(&summary, flags.expect)
        }
        "table3" => {
            let mut args = flags.rest.clone();
            if flags.all {
                args.insert(0, "--all".into());
            }
            tables::table3(&args);
            0
        }
        "table4" => {
            tables::table4(flags.runs.unwrap_or(20));
            0
        }
        "code2inv" => {
            let summary =
                tables::code2inv(flags.limit.unwrap_or(usize::MAX), flags.json, flags.workers);
            expect_code(&summary, flags.expect)
        }
        "table1" => {
            // Table 1 is the normalized half of the Figure 4 output.
            figs::fig4();
            0
        }
        "fig" => {
            let Some((n, fig_args)) = flags.rest.split_first() else {
                eprintln!("error: fig needs a figure number\n{USAGE}");
                return 1;
            };
            match n.as_str() {
                "1" => {
                    if !figs::fig1(fig_args.first().map_or("cube", |s| s.as_str())) {
                        return 1;
                    }
                }
                "2" => figs::fig2(),
                "4" => figs::fig4(),
                "6" => figs::fig6(),
                "7" => figs::fig7(),
                "8" => figs::fig8(),
                "10" => figs::fig10(),
                other => {
                    eprintln!("error: no figure `{other}` (use 1|2|4|6|7|8|10)");
                    return 1;
                }
            }
            0
        }
        "inspect" => {
            let Some(name) = flags.rest.first() else {
                eprintln!("error: inspect needs a problem name\n{USAGE}");
                return 1;
            };
            if tables::inspect(name, flags.bounds) {
                0
            } else {
                1
            }
        }
        "serve" => cmd_serve(&flags),
        "help" | "--help" | "-h" => {
            println!("{USAGE}");
            0
        }
        other => {
            eprintln!("error: unknown command `{other}`\n{USAGE}");
            1
        }
    }
}

fn expect_code(summary: &SuiteSummary, expect: Option<usize>) -> i32 {
    if summary.meets(expect) {
        0
    } else {
        eprintln!(
            "expected at least {} solved, got {}/{}",
            expect.unwrap_or(0),
            summary.solved,
            summary.attempted
        );
        3
    }
}

/// `gcln run`: solve one arbitrary program (a `.loop` file path, or a
/// registry problem name as a convenience) through the staged engine.
fn cmd_run(flags: &Flags) -> i32 {
    let Some(target) = flags.rest.first() else {
        eprintln!("error: run needs a .loop file (or registry problem name)\n{USAGE}");
        return 1;
    };
    let spec = if std::path::Path::new(target).exists() {
        match ProblemSpec::from_source(target) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("error: {e}");
                return 1;
            }
        }
    } else if let Some(s) = ProblemSpec::from_registry(target) {
        s
    } else {
        eprintln!("error: `{target}` is neither a readable file nor a registry problem");
        return 1;
    };
    let mut spec = spec;
    if let Err(e) = spec.apply_overrides(flags.max_degree, &flags.ranges) {
        eprintln!("error: {e}");
        return 1;
    }
    if flags.json {
        for note in &spec.derived {
            println!(r#"{{"event":"derived","note":{}}}"#, json_string(note));
        }
    } else {
        for note in &spec.derived {
            eprintln!("auto: {note}");
        }
    }

    let config = if flags.fast { PipelineConfig::fast() } else { PipelineConfig::default() };
    let mut job = Job::new(spec.clone()).with_config(config);
    if let Some(secs) = flags.deadline {
        match Duration::try_from_secs_f64(secs) {
            Ok(d) => job = job.with_deadline(d),
            Err(_) => {
                eprintln!("error: --deadline {secs} does not fit in a duration");
                return 1;
            }
        }
    }
    if let Some(steps) = flags.steps {
        job = job.with_step_budget(steps);
    }
    let json = flags.json;
    let outcome = Engine::new().run_with_events(&job, &mut |e: &Event| {
        if json {
            println!("{}", e.to_json());
        }
    });

    let problem = &job.spec.problem;
    let names = problem.extended_names();
    if json {
        let invariants: Vec<String> = outcome
            .loops
            .iter()
            .map(|li| {
                format!(
                    r#"{{"loop":{},"formula":{},"attempts":{}}}"#,
                    li.loop_id,
                    json_string(&li.formula.display(&names).to_string()),
                    li.attempts
                )
            })
            .collect();
        let stopped = match outcome.stopped {
            None => "null".to_string(),
            Some(r) => format!("\"{}\"", r.as_str()),
        };
        println!(
            r#"{{"type":"result","problem":{},"valid":{},"stopped":{},"cegis_rounds":{},"seconds":{:.3},"invariants":[{}]}}"#,
            json_string(&problem.name),
            outcome.valid,
            stopped,
            outcome.cegis_rounds_used,
            outcome.runtime.as_secs_f64(),
            invariants.join(",")
        );
    } else {
        println!("program `{}`: {} loop(s)", problem.name, problem.program.num_loops);
        for li in &outcome.loops {
            println!("loop {}:\n  {}", li.loop_id, li.formula.display(&names));
        }
        if let Some(reason) = outcome.stopped {
            println!("stopped early: {reason}");
        }
        println!(
            "checker: {} ({} bounded checks, {} equalities proved symbolically)",
            if outcome.valid { "VALID" } else { "counterexample found" },
            outcome.report.bounded_checks,
            outcome.report.symbolically_proved
        );
        if !outcome.valid {
            if let Some(cex) = outcome.report.counterexamples.first() {
                println!(
                    "counterexample: loop {} state {:?} ({:?})",
                    cex.loop_id, cex.state, cex.kind
                );
            }
        }
    }
    if outcome.valid {
        0
    } else {
        2
    }
}

/// `gcln serve`: the HTTP batch inference front end (see `gcln-serve`).
/// Prints the bound address (pass `--port 0` for an ephemeral port) and
/// blocks until a `POST /shutdown` arrives.
fn cmd_serve(flags: &Flags) -> i32 {
    use std::io::Write;
    if let Some(stray) = flags.rest.first() {
        // `gcln serve 9090` must not silently bind the default port.
        eprintln!(
            "error: serve takes no positional arguments (got `{stray}`; use --port)\n{USAGE}"
        );
        return 1;
    }
    // `--faults` wins; the GCLN_FAULTS environment variable is the
    // fallback so chaos harnesses can arm injection without touching
    // the command line.
    let faults = match &flags.faults {
        Some(spec) => gcln_serve::Faults::parse(spec),
        None => gcln_serve::Faults::from_env("GCLN_FAULTS"),
    };
    let faults = match faults {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: bad fault plan: {e}");
            return 1;
        }
    };
    let journal_fsync = match flags.journal_fsync.as_deref() {
        Some("always") => gcln_serve::FsyncPolicy::Always,
        _ => gcln_serve::FsyncPolicy::Never,
    };
    let config = gcln_serve::ServeConfig {
        port: flags.port.unwrap_or(8080),
        workers: flags.workers.unwrap_or(2),
        queue_cap: flags.queue_cap.unwrap_or(16),
        journal: flags.journal.clone().map(std::path::PathBuf::from),
        rate_limit: flags.rate_limit.map(gcln_serve::RateLimit::per_sec),
        journal_fsync,
        faults,
        ..gcln_serve::ServeConfig::default()
    };
    let journal_note = match &config.journal {
        Some(path) => format!(" journal={}", path.display()),
        None => String::new(),
    };
    let faults_note = match config.faults.seed() {
        Some(seed) => format!(" faults-seed={seed}"),
        None => String::new(),
    };
    match gcln_serve::start(config.clone()) {
        Ok(handle) => {
            println!(
                "gcln-serve listening on {} (workers={} queue-cap={}{journal_note}{faults_note})",
                handle.local_addr(),
                config.workers,
                config.queue_cap
            );
            let _ = std::io::stdout().flush();
            handle.wait();
            println!("gcln-serve stopped");
            0
        }
        Err(e) => {
            eprintln!("error: cannot start server: {e}");
            1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_parsing_covers_the_surface() {
        let args: Vec<String> = [
            "--fast",
            "--json",
            "--deadline",
            "2.5",
            "--steps",
            "9",
            "--max-degree",
            "3",
            "--range",
            "-4:7",
            "--limit",
            "5",
            "--expect",
            "26",
            "file.loop",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let f = parse_flags(&args).unwrap();
        assert!(f.fast && f.json);
        assert_eq!(f.deadline, Some(2.5));
        assert_eq!(f.steps, Some(9));
        assert_eq!(f.max_degree, Some(3));
        assert_eq!(f.ranges, vec![(-4, 7)]);
        assert_eq!(f.limit, Some(5));
        assert_eq!(f.expect, Some(26));
        assert_eq!(f.rest, vec!["file.loop"]);
    }

    #[test]
    fn serve_flags_parse() {
        let args: Vec<String> =
            ["--port", "0", "--workers", "3", "--queue-cap", "7", "--journal", "j.jsonl"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.port, Some(0));
        assert_eq!(f.workers, Some(3));
        assert_eq!(f.queue_cap, Some(7));
        assert_eq!(f.journal.as_deref(), Some("j.jsonl"));
        let args: Vec<String> = ["--port", "70000"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).unwrap_err().contains("port"));
    }

    #[test]
    fn fault_injection_flags_parse_and_validate() {
        let args: Vec<String> =
            ["--faults", "seed=42,sched.task_panic=0.5:2", "--journal-fsync", "always"]
                .iter()
                .map(|s| s.to_string())
                .collect();
        let f = parse_flags(&args).unwrap();
        assert_eq!(f.faults.as_deref(), Some("seed=42,sched.task_panic=0.5:2"));
        assert_eq!(f.journal_fsync.as_deref(), Some("always"));
        let args: Vec<String> =
            ["--journal-fsync", "sometimes"].iter().map(|s| s.to_string()).collect();
        assert!(parse_flags(&args).unwrap_err().contains("always|never"));
        // Fault flags are serve-only.
        assert_eq!(main_with_args(&["run".into(), "--faults".into(), "seed=1".into()]), 1);
        // A malformed --faults spec must fail loudly, not arm nothing.
        assert_eq!(
            main_with_args(&["serve".into(), "--faults".into(), "seed=1,bogus.site=1".into()]),
            1
        );
    }

    #[test]
    fn unknown_flags_and_bad_values_error() {
        let bad = |args: &[&str]| {
            let args: Vec<String> = args.iter().map(|s| s.to_string()).collect();
            parse_flags(&args).unwrap_err()
        };
        assert!(bad(&["--nope"]).contains("unknown flag"));
        assert!(bad(&["--range", "xy"]).contains("LO:HI"));
        assert!(bad(&["--steps"]).contains("needs a value"));
        assert!(bad(&["--deadline", "-1"]).contains("non-negative"));
        assert!(bad(&["--deadline", "nan"]).contains("non-negative"));
    }

    #[test]
    fn inapplicable_flags_are_rejected_per_subcommand() {
        // A silently-dropped --expect would defeat CI gating.
        assert_eq!(main_with_args(&["table4".into(), "--expect".into(), "5".into()]), 1);
        assert_eq!(main_with_args(&["table3".into(), "--json".into()]), 1);
        assert_eq!(main_with_args(&["fig".into(), "2".into(), "--fast".into()]), 1);
        assert_eq!(main_with_args(&["run".into(), "--runs".into(), "3".into()]), 1);
        assert_eq!(main_with_args(&["run".into(), "--port".into(), "1".into()]), 1);
        assert_eq!(main_with_args(&["serve".into(), "--json".into()]), 1);
        // A positional arg is a near-certain --port typo, not noise.
        assert_eq!(main_with_args(&["serve".into(), "9090".into()]), 1);
    }

    #[test]
    fn usage_errors_return_code_1() {
        assert_eq!(main_with_args(&[]), 1);
        assert_eq!(main_with_args(&["bogus".into()]), 1);
        assert_eq!(main_with_args(&["suite".into()]), 1);
        assert_eq!(main_with_args(&["suite".into(), "jupiter".into()]), 1);
        assert_eq!(main_with_args(&["fig".into(), "99".into()]), 1);
        assert_eq!(main_with_args(&["run".into()]), 1);
        assert_eq!(main_with_args(&["help".into()]), 0);
    }
}
