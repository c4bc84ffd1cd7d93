//! What a run reports: the metric catalogue (names and units, in the
//! order `BENCHMARK.json` lists them), the collected values, the
//! correctness tally, and the result line.

use crate::solo::{Counts, KindTrace};
use gcln_engine::TaskKind;
use std::collections::BTreeMap;

/// End-to-end metrics, reported on every workload with tracing off.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_s", "s"),
    ("job_p90_s", "s"),
    ("within_limit_share", "share"),
    ("peak_rss_mb", "MB"),
];

/// Run-wide per-layer metrics (the per-kind ones are generated from
/// [`TaskKind::ALL`] by [`per_layer`]).
const RUN_WIDE: [(&str, &str); 22] = [
    ("driver.self_s", "s"),
    ("trace.overhead_s", "s"),
    ("train.attempts", "count"),
    ("train.productive_share", "share"),
    ("check.bounded_checks", "count"),
    ("check.symbolic_proofs", "count"),
    ("check.warnings", "count"),
    ("result.eq_conjuncts", "count"),
    ("result.bound_conjuncts", "count"),
    ("cegis.rounds", "count"),
    ("engine.job_busy_p50_s", "s"),
    ("http.post_p50_s", "s"),
    ("http.get_p50_s", "s"),
    ("serve.polls_per_job", "count"),
    ("serve.overhead_p50_s", "s"),
    ("sched.queue_wait_p50_s", "s"),
    ("sched.utilization", "share"),
    ("spec_cache.hit_ratio", "share"),
    ("trace_cache.hit_ratio", "share"),
    ("journal.bytes", "bytes"),
    ("gen.lag_p90_s", "s"),
    ("code.rust_lines", "lines"),
];

/// Every per-layer metric with its unit, in catalogue order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut out = Vec::new();
    for kind in TaskKind::ALL {
        out.push((format!("{kind}.busy_s"), "s"));
        out.push((format!("{kind}.tasks"), "count"));
    }
    for kind in TaskKind::ALL {
        out.push((format!("sched.{kind}.busy_s"), "s"));
    }
    out.extend(RUN_WIDE.iter().map(|&(name, unit)| (name.to_string(), unit)));
    out
}

/// The values and verdicts one run collects.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    attempted: usize,
    failed: usize,
    errors: Vec<String>,
    notes: Vec<String>,
    repeatable: Option<String>,
}

impl Report {
    /// Records a metric value.
    pub fn metric(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    /// Tallies one attempted job; `why` explains a failure.
    pub fn attempt(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.errors.push(why());
        }
    }

    /// Records a failure that is not one job's (a broken invariant of
    /// the benchmark itself, such as a count that did not repeat).
    pub fn error(&mut self, message: String) {
        self.errors.push(message);
    }

    /// Adds a line to the human-readable summary.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Records the counts that must repeat exactly across runs.
    pub fn repeatable(&mut self, line: String) {
        self.repeatable = Some(line);
    }

    /// The counts that must repeat exactly, if the workload has them.
    pub fn count_line(&self) -> Option<&str> {
        self.repeatable.as_deref()
    }

    /// Whether every job was correct and nothing else went wrong.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.errors.is_empty()
    }

    /// The repeatable counts as metrics.
    pub fn counts(&mut self, c: &Counts) {
        self.metric("train.attempts", c.attempts as f64);
        let share = if c.attempts == 0 { 0.0 } else { c.productive as f64 / c.attempts as f64 };
        self.metric("train.productive_share", share);
        self.metric("check.bounded_checks", c.bounded_checks as f64);
        self.metric("check.symbolic_proofs", c.symbolic_proofs as f64);
        self.metric("check.warnings", c.warnings as f64);
        self.metric("result.eq_conjuncts", c.eq_conjuncts as f64);
        self.metric("result.bound_conjuncts", c.bound_conjuncts as f64);
        self.metric("cegis.rounds", c.cegis_rounds as f64);
    }

    /// Adds the per-kind layer table (busy seconds, share of
    /// `traced_wall`, task count) to the summary; the rest of the wall
    /// time is the driver's own.
    pub fn kind_table(&mut self, trace: &KindTrace, traced_wall: f64) {
        self.note(format!("{:<12} {:>10} {:>7} {:>7}", "layer", "busy_s", "share", "tasks"));
        for (i, kind) in TaskKind::ALL.iter().enumerate() {
            self.note(format!(
                "{:<12} {:>10.3} {:>6.1}% {:>7}",
                kind.as_str(),
                trace.busy_s[i],
                100.0 * trace.busy_s[i] / traced_wall,
                trace.tasks[i]
            ));
        }
        let task_s: f64 = trace.busy_s.iter().sum();
        self.note(format!(
            "{:<12} {:>10.3} {:>6.1}%",
            "driver.self",
            traced_wall - task_s,
            100.0 * (traced_wall - task_s) / traced_wall
        ));
    }

    /// The human summary lines followed by the one-line JSON result.
    /// With `trace`, the metrics are the per-layer catalogue (a layer a
    /// workload does not exercise reads 0); without, the end-to-end
    /// catalogue, every entry of which a correct run must have measured.
    ///
    /// # Panics
    ///
    /// Panics if a correct run did not record an end-to-end metric: that
    /// is a bug in the workload, not a measurement.
    pub fn render(&self, trace: bool) -> String {
        let catalogue: Vec<(String, &str)> = if trace {
            per_layer()
        } else {
            END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect()
        };
        let mut out = String::new();
        for line in self.notes.iter().chain(&self.errors) {
            out.push_str(line);
            out.push('\n');
        }
        let metrics: Vec<String> = catalogue
            .iter()
            .map(|(name, unit)| {
                let value = match self.values.get(name) {
                    Some(v) => *v,
                    None if trace || !self.correct() => 0.0,
                    None => panic!("end-to-end metric {name} was not measured"),
                };
                format!(r#""{name}":{{"value":{},"unit":"{unit}"}}"#, number(value))
            })
            .collect();
        out.push_str(&format!(
            r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
            self.correct(),
            self.attempted.max(1),
            self.failed,
            metrics.join(",")
        ));
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form has.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcln_serve::json::Json;

    /// The catalogue here and the one in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |list: Vec<(String, &str)>| -> Vec<(String, String)> {
            list.into_iter().map(|(n, u)| (n, u.to_string())).collect()
        };
        assert_eq!(
            listed("end_to_end"),
            own(END_TO_END.iter().map(|&(n, u)| (n.to_string(), u)).collect())
        );
        assert_eq!(listed("per_layer"), own(per_layer()));
    }

    #[test]
    fn result_line_is_json_with_every_metric() {
        let mut r = Report::default();
        for (name, _) in END_TO_END {
            r.metric(name, 1.25);
        }
        r.attempt(true, String::new);
        let text = r.render(false);
        let line = text.lines().last().expect("a result line");
        let doc = Json::parse(line).expect("the result line parses");
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").expect("metrics");
        assert_eq!(
            metrics.get("wall_s").and_then(|m| m.get("value")).and_then(Json::as_f64),
            Some(1.25)
        );
        // Tracing: layers the workload did not touch read 0.
        let traced = r.render(true);
        let doc = Json::parse(traced.lines().last().unwrap()).unwrap();
        let http = doc.get("metrics").and_then(|m| m.get("http.post_p50_s")).unwrap();
        assert_eq!(http.get("value").and_then(Json::as_f64), Some(0.0));
    }
}
