//! The scheduler's headline guarantee, tested property-style: an N-job
//! batch produces **bit-identical per-job outcomes and event payloads**
//! (wall-clock `ms` fields excluded) at every worker count and under
//! randomized priority assignments — and cancelling one job mid-batch
//! leaves every neighbor untouched.
//!
//! The priority assignments are drawn from a seeded RNG (a bounded
//! property sweep rather than a fixed example); the reference is always
//! a solo `Engine::run` of the identical job.

use gcln_engine::{Engine, Event, GclnConfig, Job, PipelineConfig, ProblemSpec, StopReason};
use gcln_sched::{JobEvent, SchedConfig, Scheduler, SubmitOptions};
use rand::{Rng, SeedableRng, StdRng};
use std::sync::{Arc, Mutex};

/// The batch: five jobs mixing problems, epoch budgets, attempt counts,
/// and limits (one budget-limited job exercises the partial-grant
/// path — its event stream includes budget-skipped attempts).
fn batch() -> Vec<Job> {
    let cfg = |epochs: usize, attempts: usize| PipelineConfig {
        gcln: GclnConfig { max_epochs: epochs },
        max_inputs: 30,
        max_attempts: attempts,
        cegis_rounds: 1,
        ..PipelineConfig::default()
    };
    let job = |name: &str, config: PipelineConfig| {
        Job::new(ProblemSpec::from_registry(name).expect("registry problem")).with_config(config)
    };
    vec![
        job("ps2", cfg(400, 2)),
        job("ps3", cfg(700, 3)),
        job("sqrt1", cfg(400, 2)),
        job("cohencu", cfg(300, 1)),
        job("ps2", cfg(600, 4)).with_step_budget(2),
    ]
}

fn strip_ms(events: &[Event]) -> Vec<String> {
    events
        .iter()
        .map(|e| {
            let j = e.to_json();
            match j.find("\"ms\":") {
                Some(i) => j[..i].to_string(),
                None => j,
            }
        })
        .collect()
}

#[test]
fn batch_outcomes_and_event_streams_are_bit_identical_at_any_worker_count() {
    let engine = Engine::new();
    let reference: Vec<_> = batch().iter().map(|job| engine.run(job)).collect();

    let mut rng = StdRng::seed_from_u64(0x5EED);
    for workers in [1usize, 2, 8] {
        // Fresh random priorities per pool width: determinism must hold
        // under priority-driven reordering too.
        let priorities: Vec<i32> = batch().iter().map(|_| rng.gen_range(-3..=3)).collect();
        let sched = Scheduler::new(SchedConfig::with_workers(workers));
        let captured: Vec<Arc<Mutex<Vec<JobEvent>>>> =
            batch().iter().map(|_| Arc::new(Mutex::new(Vec::new()))).collect();
        let tickets: Vec<_> = batch()
            .into_iter()
            .zip(&priorities)
            .zip(&captured)
            .map(|((job, &priority), cap)| {
                let cap = cap.clone();
                sched.submit_with(
                    job,
                    SubmitOptions::priority(priority),
                    Some(Box::new(move |ev: &JobEvent| {
                        cap.lock().unwrap().push(ev.clone());
                    })),
                    None,
                )
            })
            .collect();
        let outcomes: Vec<_> = tickets.iter().map(|t| t.wait()).collect();
        sched.shutdown();

        for (i, (outcome, solo)) in outcomes.iter().zip(&reference).enumerate() {
            let tag = format!("workers={workers} prio={} job#{i}", priorities[i]);
            assert_eq!(outcome.valid, solo.valid, "{tag}");
            assert_eq!(outcome.stopped, solo.stopped, "{tag}");
            assert_eq!(outcome.cegis_rounds_used, solo.cegis_rounds_used, "{tag}");
            for (a, b) in outcome.loops.iter().zip(&solo.loops) {
                assert_eq!(a.formula, b.formula, "{tag}");
                assert_eq!(a.attempts, b.attempts, "{tag}");
                assert_eq!(a.used_fractional, b.used_fractional, "{tag}");
            }
            assert_eq!(
                strip_ms(&outcome.events),
                strip_ms(&solo.events),
                "{tag}: event stream diverged from solo Engine::run"
            );
            // The sink saw the same stream, enveloped with dense per-job
            // sequence numbers (the reassembly contract).
            let seen = captured[i].lock().unwrap();
            assert_eq!(seen.len(), solo.events.len(), "{tag}");
            for (seq, ev) in seen.iter().enumerate() {
                assert_eq!(ev.seq, seq as u64, "{tag}: seq must be dense");
                assert_eq!(ev.job, tickets[i].id(), "{tag}");
            }
            let sink_payloads: Vec<Event> = seen.iter().map(|e| e.event.clone()).collect();
            assert_eq!(strip_ms(&sink_payloads), strip_ms(&solo.events), "{tag}");
        }
    }
}

#[test]
fn aggressive_aging_preserves_bit_identical_outcomes_at_any_worker_count() {
    // Aging only reorders *which* job a worker serves next; it must never
    // leak into job results. Interval 1 is the most aggressive setting —
    // every passed-over job climbs on every pop — and spread-out static
    // priorities maximize the reordering it causes.
    let engine = Engine::new();
    let reference: Vec<_> = batch().iter().map(|job| engine.run(job)).collect();

    for workers in [1usize, 2, 8] {
        let cfg = SchedConfig { aging_interval: Some(1), ..SchedConfig::with_workers(workers) };
        let sched = Scheduler::new(cfg);
        let tickets: Vec<_> = batch()
            .into_iter()
            .enumerate()
            .map(|(i, job)| {
                let priority = (i as i32) * 2 - 4; // -4, -2, 0, 2, 4
                sched.submit_with(job, SubmitOptions::priority(priority), None, None)
            })
            .collect();
        let outcomes: Vec<_> = tickets.iter().map(|t| t.wait()).collect();
        sched.shutdown();

        for (i, (outcome, solo)) in outcomes.iter().zip(&reference).enumerate() {
            let tag = format!("aging=1 workers={workers} job#{i}");
            assert_eq!(outcome.valid, solo.valid, "{tag}");
            assert_eq!(outcome.stopped, solo.stopped, "{tag}");
            for (a, b) in outcome.loops.iter().zip(&solo.loops) {
                assert_eq!(a.formula, b.formula, "{tag}");
                assert_eq!(a.attempts, b.attempts, "{tag}");
            }
            assert_eq!(
                strip_ms(&outcome.events),
                strip_ms(&solo.events),
                "{tag}: aging perturbed the event stream"
            );
        }
    }
}

#[test]
fn cancelling_one_job_mid_batch_leaves_the_others_bit_identical() {
    let engine = Engine::new();
    let reference: Vec<_> = batch().iter().map(|job| engine.run(job)).collect();

    let sched = Scheduler::new(SchedConfig::with_workers(2));
    let jobs = batch();
    let victim_token = jobs[1].cancel_token();
    let tickets: Vec<_> = jobs
        .into_iter()
        .enumerate()
        .map(|(i, job)| {
            if i == 1 {
                // Trip the cancel as soon as the victim's first Train
                // stage completes: mid-batch, mid-job.
                let token = victim_token.clone();
                sched.submit_with(
                    job,
                    SubmitOptions::default(),
                    Some(Box::new(move |ev: &JobEvent| {
                        if ev.event.to_json().contains(r#""stage":"train""#)
                            && ev.event.to_json().contains("stage_finished")
                        {
                            token.cancel();
                        }
                    })),
                    None,
                )
            } else {
                sched.submit(job)
            }
        })
        .collect();
    let outcomes: Vec<_> = tickets.iter().map(|t| t.wait()).collect();
    sched.shutdown();

    // The victim stopped cooperatively with a partial outcome.
    assert_eq!(outcomes[1].stopped, Some(StopReason::Cancelled));
    assert!(!outcomes[1].valid, "a cancelled job must not claim validity");
    assert!(outcomes[1]
        .events
        .iter()
        .any(|e| matches!(e, Event::JobStopped { reason: StopReason::Cancelled })));

    // Every neighbor is bit-identical to its solo run.
    for (i, (outcome, solo)) in outcomes.iter().zip(&reference).enumerate() {
        if i == 1 {
            continue;
        }
        assert_eq!(
            strip_ms(&outcome.events),
            strip_ms(&solo.events),
            "job#{i} was perturbed by the cancellation"
        );
        for (a, b) in outcome.loops.iter().zip(&solo.loops) {
            assert_eq!(a.formula, b.formula, "job#{i}");
        }
        assert_eq!(outcome.valid, solo.valid, "job#{i}");
    }
}
