//! Property tests for the service's parsing surfaces:
//!
//! - the HTTP request parser survives arbitrary bytes, arbitrary chunk
//!   splits, truncation, and oversized inputs — always a 4xx/5xx error
//!   value, never a panic;
//! - spec-cache keys are stable under byte identity and sensitive to
//!   any mutation;
//! - every engine [`Event`] serializes to well-formed JSON (the
//!   regression suite for `Event::to_json` string escaping), with
//!   string payloads surviving the roundtrip exactly;
//! - the JSON value type itself roundtrips parse ∘ render;
//! - journal recovery under arbitrary corruption (truncation, bit
//!   flips, torn suffixes) never panics, replays an in-order subset of
//!   the appended records, and leaves a repaired file that reopens
//!   clean.

use gcln_checker::CexKind;
use gcln_engine::events::{json_string, Event, Stage, StopReason};
use gcln_serve::cache::SpecCache;
use gcln_serve::http::{read_request, Limits};
use gcln_serve::json::Json;
use gcln_serve::Journal;
use proptest::prelude::*;
use std::io::Read;

/// A reader that hands back its data in a caller-chosen chunk pattern
/// (cycling; falls back to 1-byte reads when the pattern runs dry), so
/// the parser sees every possible split of the byte stream.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunks: Vec<usize>,
    next: usize,
}

impl ChunkedReader {
    fn new(data: Vec<u8>, chunks: Vec<usize>) -> ChunkedReader {
        ChunkedReader { data, pos: 0, chunks, next: 0 }
    }
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos >= self.data.len() {
            return Ok(0);
        }
        let step = if self.chunks.is_empty() {
            1
        } else {
            let s = self.chunks[self.next % self.chunks.len()].max(1);
            self.next += 1;
            s
        };
        let n = step.min(buf.len()).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Strings over the full byte range (controls, quotes, backslashes —
/// the characters that break naive JSON serializers).
fn raw_string() -> impl Strategy<Value = String> {
    prop::collection::vec(any::<u8>(), 0..24)
        .prop_map(|bytes| bytes.into_iter().map(|b| b as char).collect())
}

/// A syntactically valid `.loop` source parameterized enough that
/// different draws really are different programs.
fn valid_source() -> impl Strategy<Value = String> {
    (0i64..50, 1i64..9).prop_map(|(lo, c)| {
        format!(
            "inputs n; pre n >= {lo}; post x == {c} * n;\n\
             x = 0; i = 0;\n\
             while (i < n) {{ i = i + 1; x = x + {c}; }}\n"
        )
    })
}

proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_and_errors_are_http_statuses(
        data in prop::collection::vec(any::<u8>(), 0..600),
        chunks in prop::collection::vec(1usize..9, 0..40),
    ) {
        let mut reader = ChunkedReader::new(data, chunks);
        match read_request(&mut reader, &Limits::default()) {
            Ok(_) => {}
            Err(e) => prop_assert!(
                (400..=599).contains(&e.status),
                "non-HTTP error status {}", e.status
            ),
        }
    }

    #[test]
    fn wellformed_requests_survive_arbitrary_chunk_splits(
        body in prop::collection::vec(any::<u8>(), 0..200),
        pad in "[a-z0-9]{0,40}",
        chunks in prop::collection::vec(1usize..9, 1..40),
    ) {
        let mut wire = format!(
            "POST /jobs?q=1 HTTP/1.1\r\nHost: test\r\nX-Pad: {pad}\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        let mut reader = ChunkedReader::new(wire, chunks);
        let req = read_request(&mut reader, &Limits::default())
            .expect("valid request must parse")
            .expect("valid request is not a clean close");
        prop_assert_eq!(&req.method, "POST");
        prop_assert_eq!(req.path(), "/jobs");
        prop_assert_eq!(req.header("x-pad"), Some(pad.as_str()));
        prop_assert_eq!(req.body, body);
    }

    #[test]
    fn truncated_requests_are_a_4xx_not_a_panic(
        body in prop::collection::vec(any::<u8>(), 1..100),
        cut_seed in any::<u64>(),
        chunks in prop::collection::vec(1usize..9, 1..20),
    ) {
        let mut wire = format!(
            "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        )
        .into_bytes();
        wire.extend_from_slice(&body);
        // Cut anywhere strictly inside the request (never zero, never
        // the complete request).
        let cut = 1 + (cut_seed as usize) % (wire.len() - 1);
        wire.truncate(cut);
        let mut reader = ChunkedReader::new(wire, chunks);
        let err = read_request(&mut reader, &Limits::default())
            .expect_err("truncated request must error");
        prop_assert!((400..=499).contains(&err.status), "status {}", err.status);
    }

    #[test]
    fn oversized_requests_are_rejected_with_413_or_431(
        declared in 0usize..10_000,
        pad_len in 0usize..2_000,
    ) {
        let limits = Limits { max_head_bytes: 256, max_body_bytes: 512 };
        // Oversized declared body.
        let wire = format!("POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", declared)
            .into_bytes();
        let result = read_request(
            &mut ChunkedReader::new(wire, vec![7]),
            &limits,
        );
        if declared > limits.max_body_bytes {
            prop_assert_eq!(result.unwrap_err().status, 413);
        } else {
            // Underdeclared bodies just come up truncated here (no body
            // bytes follow) — that is the 400 family, or a clean parse
            // for zero.
            match result {
                Ok(_) => prop_assert_eq!(declared, 0),
                Err(e) => prop_assert!((400..=499).contains(&e.status)),
            }
        }
        // Oversized head.
        let wire = format!(
            "GET /x HTTP/1.1\r\nx-pad: {}\r\n\r\n",
            "p".repeat(pad_len)
        )
        .into_bytes();
        let result = read_request(&mut ChunkedReader::new(wire, vec![13]), &limits);
        if pad_len > limits.max_head_bytes {
            prop_assert_eq!(result.unwrap_err().status, 431);
        } else if let Err(e) = result {
            prop_assert!((400..=499).contains(&e.status));
        }
    }

    #[test]
    fn spec_cache_keys_are_stable_and_mutation_sensitive(
        source in raw_string(),
        flip_seed in any::<u64>(),
    ) {
        prop_assume!(!source.is_empty());
        // Byte-identical sources produce the same key, always.
        prop_assert_eq!(SpecCache::key(&source), SpecCache::key(&source.clone()));
        // Any single-character mutation produces a different key.
        let chars: Vec<char> = source.chars().collect();
        let at = (flip_seed as usize) % chars.len();
        let mut mutated: Vec<char> = chars.clone();
        mutated[at] = if chars[at] == 'z' { 'q' } else { 'z' };
        let mutated: String = mutated.into_iter().collect();
        prop_assume!(mutated != source);
        prop_assert_ne!(SpecCache::key(&source), SpecCache::key(&mutated));
    }

    #[test]
    fn spec_cache_hits_byte_identical_sources_and_misses_mutants(
        source in valid_source(),
    ) {
        let cache = SpecCache::new();
        let (k1, _) = cache.fetch(&source, None).unwrap();
        let (k2, _) = cache.fetch(&source, None).unwrap();
        prop_assert_eq!(k1, k2);
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cache.stats().misses, 1);
        // A whitespace-only mutation is still a different submission.
        let mutated = format!("{source} ");
        let (k3, _) = cache.fetch(&mutated, None).unwrap();
        prop_assert_ne!(k1, k3);
        prop_assert_eq!(cache.stats().misses, 2);
        prop_assert_eq!(cache.stats().entries, 2);
    }

    #[test]
    fn every_event_serializes_to_wellformed_json(
        problem in raw_string(),
        formula in raw_string(),
        ms in any::<f64>(),
        round in 0usize..4,
        loop_id in 0usize..4,
        attempt in 0usize..6,
        conjuncts in 0usize..8,
        flag in any::<bool>(),
        state in prop::collection::vec(any::<i128>(), 0..5),
    ) {
        let events = [
            Event::JobStarted { problem: problem.clone(), loops: loop_id },
            Event::StageStarted { round, stage: Stage::Train },
            Event::StageFinished { round, stage: Stage::Check, ms },
            Event::AttemptResult { round, loop_id, attempt, conjuncts, skipped: flag },
            Event::InvariantLearned {
                round,
                loop_id,
                conjuncts,
                formula: formula.clone(),
            },
            Event::Counterexample {
                round,
                loop_id,
                kind: CexKind::Consecution,
                state: state.clone(),
                reachable: flag,
            },
            Event::JobStopped { reason: StopReason::Cancelled },
            Event::JobFinished { valid: flag, cegis_rounds: round, ms },
        ];
        for event in &events {
            let line = event.to_json();
            prop_assert!(!line.contains('\n'), "event line must be single-line: {line:?}");
            let parsed = Json::parse(&line);
            prop_assert!(parsed.is_ok(), "invalid JSON line {line:?}: {:?}", parsed.err());
            let parsed = parsed.unwrap();
            prop_assert!(
                parsed.get("event").and_then(Json::as_str).is_some(),
                "untagged event: {line}"
            );
        }
        // String payloads — including quotes, backslashes, and control
        // characters — must roundtrip exactly through the escaping.
        let started = Json::parse(&events[0].to_json()).unwrap();
        prop_assert_eq!(started.get("problem").and_then(Json::as_str), Some(problem.as_str()));
        let learned = Json::parse(&events[4].to_json()).unwrap();
        prop_assert_eq!(learned.get("formula").and_then(Json::as_str), Some(formula.as_str()));
        // Counterexample states are exact integers.
        let cex = Json::parse(&events[5].to_json()).unwrap();
        let rendered_state: Vec<String> = cex
            .get("state")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(Json::render)
            .collect();
        let expected: Vec<String> = state.iter().map(|v| {
            // i128 values beyond f64's exact range lose precision in the
            // Num(f64) representation; compare through the same lens.
            let f = *v as f64;
            if f.fract() == 0.0 && f.abs() < 9e15 {
                format!("{}", f as i64)
            } else {
                format!("{f}")
            }
        }).collect();
        prop_assert_eq!(rendered_state, expected);
    }

    #[test]
    fn json_string_output_always_parses_back(s in raw_string()) {
        let encoded = json_string(&s);
        let parsed = Json::parse(&encoded);
        prop_assert!(parsed.is_ok(), "json_string produced invalid JSON: {encoded:?}");
        prop_assert_eq!(parsed.unwrap(), Json::Str(s));
    }

    #[test]
    fn json_values_roundtrip_parse_render(v in arb_json()) {
        let rendered = v.render();
        let reparsed = Json::parse(&rendered);
        prop_assert!(reparsed.is_ok(), "render produced invalid JSON: {rendered:?}");
        prop_assert_eq!(reparsed.unwrap(), v);
    }

    #[test]
    fn json_parser_never_panics_on_arbitrary_text(s in raw_string()) {
        let _ = Json::parse(&s);
    }

    #[test]
    fn journal_recovery_replays_an_in_order_subset_under_corruption(
        payloads in prop::collection::vec("[a-z0-9 ]{0,16}", 1..10),
        corruptions in prop::collection::vec((any::<u64>(), 0u8..3), 0..6),
    ) {
        let path = std::env::temp_dir().join(format!(
            "gcln-proptest-journal-{}.jsonl",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&path);
        // Write uniquely-identified records through the real append
        // path, so the file carries genuine v2 frames.
        let originals: Vec<String> = payloads
            .iter()
            .enumerate()
            .map(|(i, p)| format!(r#"{{"type":"job","id":"job-{i}","p":{}}}"#, json_string(p)))
            .collect();
        {
            let journal = Journal::open(&path).unwrap();
            for record in &originals {
                journal.append(record).unwrap();
            }
        }
        // Corrupt it: arbitrary truncations, bit flips, and torn
        // (newline-less) garbage suffixes, in arbitrary order.
        for (roll, kind) in corruptions {
            let mut bytes = std::fs::read(&path).unwrap();
            match kind {
                0 => {
                    let cut = (roll as usize) % (bytes.len() + 1);
                    bytes.truncate(cut);
                }
                1 if !bytes.is_empty() => {
                    let at = (roll as usize) % bytes.len();
                    bytes[at] ^= 1 << ((roll >> 48) % 8);
                }
                _ => {
                    let torn = format!("J2 {} deadbeef {{\"type\":\"tor", roll % 100);
                    bytes.extend_from_slice(&torn.as_bytes()[..(roll as usize % torn.len()) + 1]);
                }
            }
            std::fs::write(&path, &bytes).unwrap();
        }
        // Recovery must never panic or error, and every replayed record
        // is byte-for-byte one of the originals (the CRC admits no
        // mutants), in file order.
        let journal = Journal::open(&path).unwrap();
        let replayed_indices: Vec<usize> = journal
            .replayed()
            .iter()
            .map(|v| {
                originals.iter().position(|o| o == v).expect("replayed record must be an original")
            })
            .collect();
        for pair in replayed_indices.windows(2) {
            prop_assert!(pair[0] < pair[1], "replay out of order: {replayed_indices:?}");
        }
        // Whatever the repair rewrote must reopen with zero losses.
        let reopened = Journal::open(&path).unwrap();
        prop_assert_eq!(reopened.replayed().len(), replayed_indices.len());
        prop_assert_eq!(reopened.skipped_lines(), 0);
        prop_assert!(!reopened.recovery().repaired);
        let _ = std::fs::remove_file(&path);
    }
}

/// Arbitrary JSON values: scalars at the leaves, arrays/objects up to a
/// small recursion depth.
fn arb_json() -> BoxedStrategy<Json> {
    let leaf = prop_oneof![
        Just(Json::Null),
        any::<bool>().prop_map(Json::Bool),
        (-1.0e9..1.0e9f64).prop_map(Json::Num),
        raw_string().prop_map(Json::Str),
    ]
    .boxed();
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Json::Arr),
            prop::collection::vec((raw_string(), inner), 0..4).prop_map(Json::Obj),
        ]
    })
}
