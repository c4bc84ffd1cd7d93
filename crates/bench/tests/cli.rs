//! End-to-end tests of the `gcln` binary: arbitrary (non-registry)
//! programs through `gcln run`, JSON event output, deadline stops, and
//! suite exit-code gating.

use std::process::{Command, Output};

fn gcln(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gcln")).args(args).output().expect("gcln runs")
}

/// A ps2 variant absent from both registries: renamed variables and a
/// shifted precondition constant. Ground truth: 2*acc == j^2 + j.
fn fresh_program() -> tempfile::TempPath {
    tempfile::path(
        "ps2var.loop",
        "program ps2var;\n\
         inputs m;\n\
         pre m >= 2;\n\
         post 2 * acc == j * j + j;\n\
         acc = 0; j = 0;\n\
         while (j < m) { j = j + 1; acc = acc + j; }\n",
    )
}

/// Minimal temp-file helper (no tempfile crate in the offline vendor
/// set): unique-per-test paths under the target tmpdir, removed on drop.
mod tempfile {
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    pub struct TempPath(pub PathBuf);

    impl TempPath {
        pub fn as_str(&self) -> &str {
            self.0.to_str().unwrap()
        }
    }

    impl Drop for TempPath {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.0);
        }
    }

    pub fn path(name: &str, contents: &str) -> TempPath {
        // Tests run concurrently in one process; a counter keeps paths
        // unique so one test's Drop cannot unlink another's file.
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!("gcln-cli-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join(format!("{}-{name}", SEQ.fetch_add(1, Ordering::Relaxed)));
        std::fs::write(&p, contents).unwrap();
        TempPath(p)
    }
}

/// Pulls the value of a `"key":value` pair out of a JSON line (the
/// output schema is flat enough that full parsing is unnecessary).
fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    if let Some(stripped) = rest.strip_prefix('"') {
        stripped.split('"').next()
    } else {
        rest.split([',', '}']).next()
    }
}

#[test]
fn run_solves_a_non_registry_program_with_json_events() {
    let file = fresh_program();
    let out = gcln(&["run", file.as_str(), "--fast", "--json"]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(out.status.success(), "gcln run failed:\n{stdout}");

    // Auto-derived configuration is reported.
    assert!(stdout.contains(r#""event":"derived""#), "missing derived events:\n{stdout}");
    assert!(stdout.contains("range m in 2..=22"), "pre-derived range missing:\n{stdout}");

    // Every stage's events stream as JSON lines.
    for stage in ["trace", "train", "extract", "check"] {
        assert!(
            stdout.contains(&format!(r#""event":"stage_finished","round":0,"stage":"{stage}""#)),
            "missing stage {stage}:\n{stdout}"
        );
    }

    // The final record: checker-valid, with the learned invariant.
    let result =
        stdout.lines().find(|l| l.starts_with(r#"{"type":"result""#)).expect("result record");
    assert_eq!(json_field(result, "valid"), Some("true"), "{result}");
    assert_eq!(json_field(result, "stopped"), Some("null"), "{result}");
    let formula = json_field(result, "formula").expect("invariant formula");
    assert!(
        formula.contains("j^2 - 2*acc + j == 0") || formula.contains("2*acc - j^2 - j == 0"),
        "ground-truth equality not learned: {formula}"
    );
}

#[test]
fn run_is_deterministic_across_thread_counts() {
    let file = fresh_program();
    let formula_at = |threads: &str| {
        let out = Command::new(env!("CARGO_BIN_EXE_gcln"))
            .args(["run", file.as_str(), "--fast", "--json"])
            .env("RAYON_NUM_THREADS", threads)
            .output()
            .expect("gcln runs");
        assert!(out.status.success());
        let stdout = String::from_utf8(out.stdout).unwrap();
        let result = stdout
            .lines()
            .find(|l| l.starts_with(r#"{"type":"result""#))
            .expect("result record")
            .to_string();
        json_field(&result, "formula").unwrap().to_string()
    };
    assert_eq!(formula_at("1"), formula_at("4"), "invariant depends on RAYON_NUM_THREADS");
}

#[test]
fn run_with_zero_deadline_stops_and_exits_nonzero() {
    let file = fresh_program();
    let out = gcln(&["run", file.as_str(), "--fast", "--json", "--deadline", "0"]);
    assert_eq!(out.status.code(), Some(2), "a stopped job must not exit 0");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains(r#""event":"job_stopped","reason":"deadline_exceeded""#),
        "missing stop event:\n{stdout}"
    );
    let result = stdout.lines().find(|l| l.starts_with(r#"{"type":"result""#)).unwrap();
    assert_eq!(json_field(result, "stopped"), Some("deadline_exceeded"), "{result}");
}

#[test]
fn run_rejects_unknown_targets_and_bad_sources() {
    let out = gcln(&["run", "definitely-not-a-problem"]);
    assert_eq!(out.status.code(), Some(1));
    let bad = tempfile::path("bad.loop", "while (");
    let out = gcln(&["run", bad.as_str()]);
    assert_eq!(out.status.code(), Some(1));
}

#[test]
fn run_rejects_surplus_and_empty_ranges() {
    let file = fresh_program();
    for flags in [
        &["--range", "0:10", "--range", "5:6"][..],
        &["--range", "9:3"][..],
        &["--max-degree", "0"][..],
        &["--max-degree", "9"][..],
    ] {
        let mut args = vec!["run", file.as_str()];
        args.extend_from_slice(flags);
        let out = gcln(&args);
        assert_eq!(out.status.code(), Some(1), "{flags:?} must be a usage error");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.starts_with("error: "), "{flags:?}: {stderr}");
    }
}

#[test]
fn run_overrides_replace_their_auto_notes() {
    let file = fresh_program();
    // A zero deadline stops before training: only the notes matter.
    let args = ["run", file.as_str(), "--json", "--deadline", "0", "--range", "2:12"];
    let out = gcln(&[&args[..], &["--max-degree", "3"]].concat());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(!stdout.contains(r#""event":"derived""#), "overridden notes remain:\n{stdout}");
    // Without overrides both notes are reported.
    let out = gcln(&args[..5]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("range m in 2..=22 (from pre)"), "{stdout}");
    assert!(stdout.contains(r#""note":"max_degree 2"#), "{stdout}");
}

#[test]
fn suite_expect_threshold_gates_the_exit_code() {
    // Filtering to a nonexistent problem keeps this instant: 0 attempted
    // means any --expect N > 0 must fail with exit code 3.
    let out = gcln(&["suite", "nla", "--json", "--expect", "1", "no-such-problem"]);
    assert_eq!(out.status.code(), Some(3));
    let stdout = String::from_utf8(out.stdout).unwrap();
    let summary =
        stdout.lines().find(|l| l.starts_with(r#"{"type":"summary""#)).expect("summary record");
    assert_eq!(json_field(summary, "solved"), Some("0"), "{summary}");
    assert_eq!(json_field(summary, "attempted"), Some("0"), "{summary}");

    // Without --expect the same empty run exits 0.
    let out = gcln(&["suite", "nla", "--json", "no-such-problem"]);
    assert_eq!(out.status.code(), Some(0));
}
