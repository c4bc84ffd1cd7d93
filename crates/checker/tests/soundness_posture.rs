//! Tests pinning down the checker's documented soundness posture:
//! reachable violations refute, mutated-state consecution violations
//! warn, and immutable-input precondition conjuncts gate the mutation
//! sampler.

use gcln_checker::{check, immutable_pre_conjuncts, Candidate, CexKind};
use gcln_lang::parse_program;
use gcln_logic::parse_formula;

#[test]
fn immutable_pre_conjuncts_are_input_only() {
    let p = parse_program(
        "inputs a, b; pre a >= 1 && b >= 1 && a + b <= 100;
         x = a;
         while (x > 0) { x = x - 1; }",
    )
    .unwrap();
    // All three conjuncts mention only a/b, which are never assigned.
    assert_eq!(immutable_pre_conjuncts(&p).len(), 3);

    let p2 = parse_program(
        "inputs a; pre a >= 1 && a <= 50;
         a = a + 1; x = 0;
         while (x < a) { x = x + 1; }",
    )
    .unwrap();
    // `a` is assigned, so no pre conjunct survives.
    assert!(immutable_pre_conjuncts(&p2).is_empty());
}

#[test]
fn divbin_style_invariant_warns_but_is_not_refuted() {
    // The documented divbin invariant is inductive only relative to the
    // fact that b is B·2^k; mutation sampling cannot know that, so it
    // must produce warnings, never counterexamples.
    let p = parse_program(
        "inputs A, B; pre A >= 0 && B >= 1;
         q = 0; r = A; b = B;
         while (r >= b) { b = 2 * b; }
         while (b != B) {
           q = 2 * q; b = b / 2;
           if (r >= b) { q = q + 1; r = r - b; }
         }",
    )
    .unwrap();
    let names = p.vars.clone();
    let inv = parse_formula("A == q * b + r && r >= 0 && r < b", &names).unwrap();
    let tuples: Vec<Vec<i128>> = (0..30).flat_map(|a| (1..6).map(move |b| vec![a, b])).collect();
    let report = check(&p, &tuples, &|s| s.to_vec(), &[Candidate { loop_id: 1, formula: inv }]);
    assert!(report.is_valid(), "cex: {:?}", report.counterexamples.first());
    // The parity-structure warnings exist (odd mutated b) but do not
    // refute — this is the documented posture.
    assert!(
        report.warnings.iter().all(|w| w.kind == CexKind::Consecution && !w.reachable),
        "warnings must be unreachable consecution reports"
    );
}

#[test]
fn reachable_consecution_violation_is_a_hard_counterexample() {
    // x <= 6 on a loop running to 10: the trace itself refutes it.
    let p = parse_program("x = 0; while (x < 10) { x = x + 1; }").unwrap();
    let names = p.vars.clone();
    let inv = parse_formula("x <= 6", &names).unwrap();
    let report = check(&p, &[vec![]], &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: inv }]);
    assert!(!report.is_valid());
    assert!(report.counterexamples.iter().all(|c| c.reachable));
}

#[test]
fn cegis_feedback_exposes_only_reachable_states() {
    let p = parse_program("x = 0; while (x < 10) { x = x + 1; }").unwrap();
    let names = p.vars.clone();
    let inv = parse_formula("x <= 6", &names).unwrap();
    let report = check(&p, &[vec![]], &|s| s.to_vec(), &[Candidate { loop_id: 0, formula: inv }]);
    let feedback = report.reachable_cex_states(0);
    assert!(!feedback.is_empty());
    // Every feedback state is a genuine loop-head state of the program.
    for s in &feedback {
        assert!(s[0] >= 0 && s[0] <= 10);
    }
}
