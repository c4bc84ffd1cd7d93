//! Structured progress events emitted by [`crate::Engine`] jobs.
//!
//! Every event serializes to a single JSON object (one per line — the
//! "JSON lines" convention) via [`Event::to_json`], so external drivers
//! can stream a job's progress without parsing human-oriented output.
//! The serializer is hand-rolled: the build environment is offline and
//! the event vocabulary is small enough that serde would be overkill.

use crate::run::InferenceOutcome;
use gcln_checker::CexKind;
use std::fmt;

/// The engine's pipeline stages (paper Fig. 3). `Cegis` is the
/// counterexample-feedback stage between checking rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Trace collection (training + validation points, widened tuples).
    Trace,
    /// G-CLN equality-model training (the per-attempt fan-out).
    Train,
    /// Formula assembly: per-attempt extraction, kernel completion,
    /// fractional fallback, PBQU bounds, validation pruning.
    Extract,
    /// Invariant checking (initiation / consecution / postcondition).
    Check,
    /// Counterexample feedback into the training data.
    Cegis,
}

impl Stage {
    /// Lower-case stable identifier used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            Stage::Trace => "trace",
            Stage::Train => "train",
            Stage::Extract => "extract",
            Stage::Check => "check",
            Stage::Cegis => "cegis",
        }
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Why a job stopped before completing all rounds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopReason {
    /// The job's [`crate::CancelToken`] was triggered.
    Cancelled,
    /// The job's wall-clock deadline elapsed.
    DeadlineExceeded,
    /// The job's step budget (training attempts + checker calls) ran out.
    BudgetExhausted,
    /// A stage task panicked; the job was isolated and failed with a
    /// partial outcome (events up to the panic intact).
    TaskPanicked,
    /// The spec's circuit breaker was open — tasks for this spec hash
    /// panicked repeatedly — so the job failed fast without running.
    Quarantined,
}

impl StopReason {
    /// Stable identifier used in JSON output.
    pub fn as_str(self) -> &'static str {
        match self {
            StopReason::Cancelled => "cancelled",
            StopReason::DeadlineExceeded => "deadline_exceeded",
            StopReason::BudgetExhausted => "budget_exhausted",
            StopReason::TaskPanicked => "task_panicked",
            StopReason::Quarantined => "quarantined",
        }
    }
}

impl fmt::Display for StopReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One structured progress event. Timings are reported in milliseconds
/// since they are human-scale for this workload; all counters are plain
/// integers so downstream JSON consumers need no schema tricks.
#[derive(Clone, Debug)]
pub enum Event {
    /// A job began: problem name and loop count.
    JobStarted {
        /// Problem name.
        problem: String,
        /// Number of loops to learn invariants for.
        loops: usize,
    },
    /// A stage began within a CEGIS round (`round` 0 for `Trace`).
    StageStarted {
        /// CEGIS round (0-based).
        round: usize,
        /// The stage.
        stage: Stage,
    },
    /// A stage finished.
    StageFinished {
        /// CEGIS round (0-based).
        round: usize,
        /// The stage.
        stage: Stage,
        /// Stage wall-clock time in milliseconds.
        ms: f64,
    },
    /// One training attempt's extraction result for one loop.
    AttemptResult {
        /// CEGIS round.
        round: usize,
        /// Loop id.
        loop_id: usize,
        /// Attempt index (0-based).
        attempt: usize,
        /// Conjuncts the attempt's extraction produced (before merging).
        conjuncts: usize,
        /// Whether the attempt was skipped by a stop condition.
        skipped: bool,
    },
    /// The invariant learned for one loop this round (after validation
    /// pruning), rendered over the extended variable names.
    InvariantLearned {
        /// CEGIS round.
        round: usize,
        /// Loop id.
        loop_id: usize,
        /// Conjunct count after pruning.
        conjuncts: usize,
        /// Formula text.
        formula: String,
    },
    /// The checker produced a counterexample.
    Counterexample {
        /// CEGIS round.
        round: usize,
        /// Loop id.
        loop_id: usize,
        /// Violated condition.
        kind: CexKind,
        /// Program-variable state at the loop head.
        state: Vec<i128>,
        /// Whether the state was observed on a real execution.
        reachable: bool,
    },
    /// The job hit a stop condition and will return a partial outcome.
    JobStopped {
        /// The stop condition.
        reason: StopReason,
    },
    /// The job finished (normally or after a stop).
    JobFinished {
        /// Whether the final candidates passed the checker.
        valid: bool,
        /// CEGIS rounds consumed.
        cegis_rounds: usize,
        /// Total wall-clock time in milliseconds.
        ms: f64,
    },
}

impl Event {
    /// Serializes the event as one JSON object (no trailing newline).
    pub fn to_json(&self) -> String {
        match self {
            Event::JobStarted { problem, loops } => format!(
                r#"{{"event":"job_started","problem":{},"loops":{loops}}}"#,
                json_string(problem)
            ),
            Event::StageStarted { round, stage } => format!(
                r#"{{"event":"stage_started","round":{round},"stage":"{}"}}"#,
                stage.as_str()
            ),
            Event::StageFinished { round, stage, ms } => format!(
                r#"{{"event":"stage_finished","round":{round},"stage":"{}","ms":{}}}"#,
                stage.as_str(),
                json_f64(*ms)
            ),
            Event::AttemptResult { round, loop_id, attempt, conjuncts, skipped } => format!(
                r#"{{"event":"attempt_result","round":{round},"loop":{loop_id},"attempt":{attempt},"conjuncts":{conjuncts},"skipped":{skipped}}}"#
            ),
            Event::InvariantLearned { round, loop_id, conjuncts, formula } => format!(
                r#"{{"event":"invariant_learned","round":{round},"loop":{loop_id},"conjuncts":{conjuncts},"formula":{}}}"#,
                json_string(formula)
            ),
            Event::Counterexample { round, loop_id, kind, state, reachable } => {
                let kind = match kind {
                    CexKind::Initiation => "initiation",
                    CexKind::Consecution => "consecution",
                    CexKind::Postcondition => "postcondition",
                };
                let state: Vec<String> = state.iter().map(|v| v.to_string()).collect();
                format!(
                    r#"{{"event":"counterexample","round":{round},"loop":{loop_id},"kind":"{kind}","state":[{}],"reachable":{reachable}}}"#,
                    state.join(",")
                )
            }
            Event::JobStopped { reason } => {
                format!(r#"{{"event":"job_stopped","reason":"{}"}}"#, reason.as_str())
            }
            Event::JobFinished { valid, cegis_rounds, ms } => format!(
                r#"{{"event":"job_finished","valid":{valid},"cegis_rounds":{cegis_rounds},"ms":{}}}"#,
                json_f64(*ms)
            ),
        }
    }
}

/// The keys [`result_members`] renders, in order.
pub const RESULT_KEYS: [&str; 5] = ["valid", "stopped", "cegis_rounds", "seconds", "invariants"];

/// An outcome's result members as the members of a JSON object,
/// without braces: [`RESULT_KEYS`], i.e. `valid`, `stopped`,
/// `cegis_rounds`, `seconds` (3 decimals) and `invariants` (each
/// `{loop,formula,attempts}`, formulas rendered over `names`, the
/// problem's extended variable names). `gcln run --json`'s result line
/// and the service's job records embed this text verbatim.
pub fn result_members(outcome: &InferenceOutcome, names: &[String]) -> String {
    let invariants: Vec<String> = outcome
        .loops
        .iter()
        .map(|li| {
            format!(
                r#"{{"loop":{},"formula":{},"attempts":{}}}"#,
                li.loop_id,
                json_string(&li.formula.display(names).to_string()),
                li.attempts
            )
        })
        .collect();
    let values = [
        outcome.valid.to_string(),
        outcome.stopped.map_or_else(|| "null".to_string(), |r| json_string(r.as_str())),
        outcome.cegis_rounds_used.to_string(),
        format!("{:.3}", outcome.runtime.as_secs_f64()),
        format!("[{}]", invariants.join(",")),
    ];
    let members: Vec<String> =
        RESULT_KEYS.iter().zip(values).map(|(key, value)| format!("\"{key}\":{value}")).collect();
    members.join(",")
}

/// Escapes and quotes a string for inclusion in JSON output.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Formats a float for JSON (finite; NaN/inf collapse to 0 — they cannot
/// occur in timings but JSON has no encoding for them).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.3}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_serialize_to_single_json_lines() {
        let events = [
            Event::JobStarted { problem: "ps2\"x".into(), loops: 1 },
            Event::StageStarted { round: 0, stage: Stage::Trace },
            Event::StageFinished { round: 0, stage: Stage::Check, ms: 12.5 },
            Event::AttemptResult { round: 1, loop_id: 0, attempt: 2, conjuncts: 3, skipped: false },
            Event::InvariantLearned {
                round: 0,
                loop_id: 0,
                conjuncts: 2,
                formula: "x == y^2".into(),
            },
            Event::Counterexample {
                round: 0,
                loop_id: 0,
                kind: CexKind::Consecution,
                state: vec![-3, 7],
                reachable: true,
            },
            Event::JobStopped { reason: StopReason::DeadlineExceeded },
            Event::JobFinished { valid: false, cegis_rounds: 1, ms: 99.0 },
        ];
        for e in &events {
            let json = e.to_json();
            assert!(!json.contains('\n'), "multi-line: {json}");
            assert!(json.starts_with('{') && json.ends_with('}'), "not an object: {json}");
            assert!(json.contains(r#""event":""#), "untagged: {json}");
        }
        assert!(events[0].to_json().contains(r#""problem":"ps2\"x""#));
        assert!(events[5].to_json().contains(r#""state":[-3,7]"#));
        assert!(events[6].to_json().contains("deadline_exceeded"));
    }

    #[test]
    fn json_string_escapes_control_chars() {
        assert_eq!(json_string("a\nb"), r#""a\nb""#);
        assert_eq!(json_string("q\"\\"), r#""q\"\\""#);
        assert_eq!(json_string("\u{1}"), "\"\\u0001\"");
    }
}
