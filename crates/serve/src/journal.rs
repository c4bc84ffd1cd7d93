//! The persistent job journal: crash-safe framed records, appended as
//! jobs are admitted and completed, replayed on server start.
//!
//! This is the ROADMAP's "event sinks beyond stdout" item for the
//! service scenario: a `gcln serve --journal jobs.jsonl` process can be
//! restarted and keep serving every completed job's result — learned
//! invariants *and* the full event stream — without re-running
//! inference.
//!
//! # Format (v2)
//!
//! Each record is one line, framed as
//!
//! ```text
//! J2 <payload-len> <crc32-hex8> <payload>\n
//! ```
//!
//! where the payload is a JSON object with a `"type"` tag. The length and CRC-32 (IEEE) let recovery detect
//! torn writes (a crash mid-append) and silent corruption (bit rot):
//! a frame whose payload length or checksum does not match is dropped,
//! never replayed as a half-truth. Keeping the payload as plain JSON on
//! its own line means `grep`-based tooling keeps working unchanged.
//!
//! # Recovery
//!
//! Replay is never fatal on corrupt data (genuine I/O errors stay
//! fatal — an unreadable disk is not a torn line):
//!
//! - A chunk that fails frame validation is rescanned for an embedded
//!   `J2 ` magic: a torn write leaves a partial frame with no trailing
//!   newline, so the *next* record glues onto the garbage. The scan
//!   resynchronizes at the first position that yields a valid frame.
//! - When anything was skipped or resynced, the journal is rewritten
//!   at open — corrupt tails are truncated and every surviving record
//!   is re-framed, atomically (temp file + rename).
//!
//! # Durability
//!
//! [`FsyncPolicy`] selects whether `append` runs `fsync` per record
//! (`Always`) or leaves flushing to the OS (`Never`, the default —
//! a kernel crash can then lose the tail, but recovery still truncates
//! cleanly to the valid prefix).
//!
//! # Fault injection
//!
//! When built with an active [`Faults`] plan, `append` honours two
//! sites: `journal.torn_write` (writes a prefix of the frame, then
//! fails — models a crash mid-write; the caller sees the error and must
//! not consider the record durable) and `journal.bit_flip` (flips one
//! payload bit, then reports success — models silent corruption caught
//! only by the CRC at recovery).

use crate::json::Json;
use gcln_faults::{site, Faults};
use std::fs::{File, OpenOptions};
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// When `append` forces records to stable storage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fsync` after every appended record: an admitted job survives
    /// even a kernel crash, at a per-request latency cost.
    Always,
    /// Flush to the OS only (default): a process crash loses nothing,
    /// a kernel crash may lose the unsynced tail — which recovery then
    /// truncates to the last valid record.
    #[default]
    Never,
}

/// Frame magic for v2 records.
const MAGIC: &str = "J2 ";

/// CRC-32 (IEEE 802.3, reflected). Bitwise — journal records are small
/// and this keeps the crate dependency-free.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

fn encode_frame(payload: &str) -> String {
    format!("{MAGIC}{} {:08x} {payload}", payload.len(), crc32(payload.as_bytes()))
}

/// Validates one v2 frame starting at the beginning of `chunk`,
/// returning the payload. `None` on any mismatch (bad magic, bad
/// length, bad checksum).
fn decode_frame(chunk: &str) -> Option<&str> {
    let rest = chunk.strip_prefix(MAGIC)?;
    let (len_s, rest) = rest.split_once(' ')?;
    let len: usize = len_s.parse().ok()?;
    let (crc_s, payload) = rest.split_once(' ')?;
    if crc_s.len() != 8 {
        return None;
    }
    let crc = u32::from_str_radix(crc_s, 16).ok()?;
    if payload.len() != len || crc32(payload.as_bytes()) != crc {
        return None;
    }
    Some(payload)
}

/// What one newline-delimited chunk of the journal decoded to.
enum Decoded<'a> {
    /// A valid v2 frame at chunk start.
    Frame(&'a str),
    /// A valid v2 frame found mid-chunk — garbage (e.g. a torn partial
    /// frame) preceded it and was discarded.
    Resynced(&'a str),
    /// Unrecoverable garbage.
    Corrupt,
}

fn decode_chunk(chunk: &str) -> Decoded<'_> {
    if let Some(payload) = decode_frame(chunk) {
        return Decoded::Frame(payload);
    }
    // Magic scan: a torn write leaves a partial frame with no newline,
    // so the next appended frame glues onto it. Resync at the first
    // embedded position that validates.
    let mut from = 0;
    while let Some(off) = chunk[from..].find(MAGIC) {
        let at = from + off;
        if at > 0 {
            if let Some(payload) = decode_frame(&chunk[at..]) {
                return Decoded::Resynced(payload);
            }
        }
        from = at + MAGIC.len();
    }
    Decoded::Corrupt
}

/// Counters describing what recovery saw at open.
#[derive(Clone, Copy, Debug, Default)]
pub struct RecoveryStats {
    /// Chunks (or frames) dropped as corrupt: torn tails, checksum
    /// mismatches, unparseable payloads.
    pub skipped_lines: usize,
    /// Records salvaged by resynchronizing past torn garbage.
    pub resynced_records: usize,
    /// Whether open rewrote the file (corruption found).
    pub repaired: bool,
}

/// The result of opening a journal: replayed records plus the handle
/// for appending.
#[derive(Debug)]
pub struct Journal {
    path: PathBuf,
    file: Mutex<File>,
    fsync: FsyncPolicy,
    faults: Faults,
    replayed: Vec<String>,
    recovery: RecoveryStats,
}

impl Journal {
    /// Opens (creating if absent) a journal for append, first replaying
    /// every valid record already present (frames verified by
    /// length + CRC). Corrupt chunks are
    /// skipped and counted, never fatal; if any were found the file is
    /// rewritten in place with only the surviving records.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error when the file cannot be opened,
    /// created, or (when repair is needed) rewritten.
    pub fn open(path: impl AsRef<Path>) -> std::io::Result<Journal> {
        let path = path.as_ref().to_path_buf();
        let mut replayed: Vec<String> = Vec::new();
        let mut recovery = RecoveryStats::default();
        if let Ok(existing) = File::open(&path) {
            // Raw byte lines, decoded lossily per chunk: a crash can
            // tear the final record anywhere — including inside a
            // multi-byte UTF-8 sequence — and replay must skip it, not
            // refuse to start the server. Corrupted bytes become
            // replacement chars and fail the CRC; intact frames glued
            // after torn garbage survive the lossy pass unchanged.
            let mut reader = BufReader::new(existing);
            let mut buf = Vec::new();
            loop {
                buf.clear();
                if reader.read_until(b'\n', &mut buf)? == 0 {
                    break;
                }
                let chunk = String::from_utf8_lossy(&buf);
                let chunk = chunk.trim();
                if chunk.is_empty() {
                    continue;
                }
                let (payload, resynced) = match decode_chunk(chunk) {
                    Decoded::Frame(p) => (p, false),
                    Decoded::Resynced(p) => (p, true),
                    Decoded::Corrupt => {
                        recovery.skipped_lines += 1;
                        continue;
                    }
                };
                match Json::parse(payload) {
                    Ok(v) if v.get("type").and_then(Json::as_str).is_some() => {
                        recovery.resynced_records += usize::from(resynced);
                        replayed.push(payload.to_string());
                    }
                    _ => recovery.skipped_lines += 1,
                }
            }
        }
        if recovery.skipped_lines > 0 || recovery.resynced_records > 0 {
            // Truncate corruption, atomically.
            write_framed(&path, &replayed)?;
            recovery.repaired = true;
        }
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        Ok(Journal {
            path,
            file: Mutex::new(file),
            fsync: FsyncPolicy::default(),
            faults: Faults::disabled(),
            replayed,
            recovery,
        })
    }

    /// Sets the durability policy for subsequent appends.
    pub fn set_fsync(&mut self, policy: FsyncPolicy) {
        self.fsync = policy;
    }

    /// Arms fault injection for subsequent appends.
    pub fn set_faults(&mut self, faults: Faults) {
        self.faults = faults;
    }

    /// The journal's path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records replayed at open, in file order: each a payload that
    /// parses as a JSON object with a `"type"` tag, as written.
    pub fn replayed(&self) -> &[String] {
        &self.replayed
    }

    /// Takes ownership of the replayed records, leaving the journal
    /// empty-handed. The server calls this once at startup so the
    /// records (each carrying a full event stream) drop after
    /// conversion instead of living in memory for the process lifetime.
    pub fn take_replayed(&mut self) -> Vec<String> {
        std::mem::take(&mut self.replayed)
    }

    /// Corrupt chunks skipped at open.
    pub fn skipped_lines(&self) -> usize {
        self.recovery.skipped_lines
    }

    /// Everything recovery saw at open.
    pub fn recovery(&self) -> RecoveryStats {
        self.recovery
    }

    /// Appends one record (the caller passes a complete JSON object
    /// without trailing newline), framed with length + CRC, flushed,
    /// and — under [`FsyncPolicy::Always`] — fsynced.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error on a failed write; the record
    /// must then be treated as not durable (it may be partially on
    /// disk, which recovery will discard).
    pub fn append(&self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "journal records must be single lines");
        let mut frame = encode_frame(line).into_bytes();
        if let Some(roll) = self.faults.fire(site::JOURNAL_BIT_FLIP) {
            // Silent corruption: flip one bit inside the payload (past
            // the header so the frame still parses and only the CRC can
            // tell), then report success.
            let header = frame.len() - line.len();
            let idx = header + (roll as usize) % line.len().max(1);
            if idx < frame.len() {
                frame[idx] ^= 1 << ((roll >> 32) % 8);
            }
        }
        let mut file = self.file.lock().unwrap();
        if let Some(roll) = self.faults.fire(site::JOURNAL_TORN_WRITE) {
            // Crash mid-write: a strict prefix of the frame lands on
            // disk (no newline), then the append fails.
            let cut = (roll as usize) % frame.len().max(1);
            file.write_all(&frame[..cut])?;
            file.flush()?;
            return Err(std::io::Error::other("injected torn write"));
        }
        frame.push(b'\n');
        file.write_all(&frame)?;
        file.flush()?;
        if self.fsync == FsyncPolicy::Always {
            file.sync_data()?;
        }
        Ok(())
    }

    /// Current on-disk size in bytes (compaction trigger input).
    pub fn size_bytes(&self) -> u64 {
        self.file.lock().unwrap().metadata().map_or(0, |m| m.len())
    }

    /// Compaction: atomically replaces the journal's contents with
    /// exactly `lines` (payloads, framed on write; a temp file is
    /// written and renamed over the original, so a crash mid-compaction
    /// leaves either the old or the new journal, never a torn mix). A
    /// long-lived server calls this when the append-only file outgrows
    /// its retention window — every evicted job's record would
    /// otherwise live on disk forever.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the original journal is intact
    /// in that case.
    pub fn rewrite(&self, lines: &[String]) -> std::io::Result<()> {
        // Hold the append lock across the whole swap so a concurrent
        // `append` cannot write to the orphaned pre-rename file.
        let mut file = self.file.lock().unwrap();
        write_framed(&self.path, lines)?;
        *file = OpenOptions::new().create(true).append(true).open(&self.path)?;
        Ok(())
    }
}

/// Writes `payloads` as framed records to a temp file and renames it
/// over `path` (all-or-nothing on crash).
fn write_framed(path: &Path, payloads: &[String]) -> std::io::Result<()> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut out = File::create(&tmp)?;
        for payload in payloads {
            debug_assert!(!payload.contains('\n'));
            out.write_all(encode_frame(payload).as_bytes())?;
            out.write_all(b"\n")?;
        }
        out.flush()?;
        out.sync_all()?;
    }
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gcln-journal-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    #[test]
    fn roundtrips_records_and_truncates_torn_tails() {
        let path = tmp("roundtrip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            assert!(j.replayed().is_empty());
            j.append(r#"{"type":"job","id":"job-1","valid":true}"#).unwrap();
            j.append(r#"{"type":"job","id":"job-2","valid":false}"#).unwrap();
        }
        // Simulate a crash mid-append: a torn trailing frame, cut inside
        // a multi-byte UTF-8 sequence (the first byte of `é`) — replay
        // must skip it, not refuse to open.
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(b"J2 40 deadbeef {\"type\":\"job\",\"id\":\"job-3\",\"name\":\"caf\xc3")
                .unwrap();
        }
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 2);
        assert_eq!(j.skipped_lines(), 1);
        assert!(j.recovery().repaired, "a corrupt tail must trigger a repair rewrite");
        assert_eq!(j.replayed()[1], r#"{"type":"job","id":"job-2","valid":false}"#);
        // The repair physically truncated the garbage: a third open is
        // clean.
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 2);
        assert_eq!(j.skipped_lines(), 0);
        assert!(!j.recovery().repaired);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn checksum_rejects_flipped_bits() {
        let path = tmp("bitflip.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            j.append(r#"{"type":"job","id":"job-1"}"#).unwrap();
            j.append(r#"{"type":"job","id":"job-2"}"#).unwrap();
        }
        // Flip one payload bit in the first record on disk.
        let mut bytes = std::fs::read(&path).unwrap();
        let idx = bytes.iter().position(|&b| b == b'1').unwrap();
        bytes[idx] ^= 0x08;
        std::fs::write(&path, &bytes).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 1, "the corrupted record must be dropped");
        assert_eq!(j.replayed()[0], r#"{"type":"job","id":"job-2"}"#);
        assert_eq!(j.skipped_lines(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn magic_scan_recovers_a_record_glued_after_torn_garbage() {
        let path = tmp("resync.jsonl");
        let _ = std::fs::remove_file(&path);
        // A torn partial frame with no newline, then a valid frame
        // appended straight after it — one physical line on disk.
        let good = r#"{"type":"job","id":"job-2"}"#;
        let glued = format!("J2 99 0badc0de {{\"type\":\"jo{}\n", encode_frame(good));
        std::fs::write(&path, glued).unwrap();
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 1);
        assert_eq!(j.replayed()[0], good);
        assert_eq!(j.recovery().resynced_records, 1);
        assert!(j.recovery().repaired);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn bare_json_lines_are_skipped_and_truncated() {
        let path = tmp("bare.jsonl");
        let _ = std::fs::remove_file(&path);
        {
            let j = Journal::open(&path).unwrap();
            j.append(r#"{"type":"job","id":"job-1"}"#).unwrap();
        }
        // Unframed JSON is corruption like any other: no record replays
        // from it, and the repair leaves only the framed record.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"{\"type\":\"metrics\",\"x\":1}\n{\"type\":\"job\",\"id\":\"job-9\"}\n")
            .unwrap();
        drop(f);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 1);
        assert_eq!(j.replayed()[0], r#"{"type":"job","id":"job-1"}"#);
        assert_eq!(j.skipped_lines(), 2);
        assert!(j.recovery().repaired);
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, format!("{}\n", encode_frame(r#"{"type":"job","id":"job-1"}"#)));
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 1);
        assert_eq!(j.skipped_lines(), 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn rewrite_replaces_contents_atomically_and_appends_continue() {
        let path = tmp("rewrite.jsonl");
        let _ = std::fs::remove_file(&path);
        let j = Journal::open(&path).unwrap();
        for i in 0..10 {
            j.append(&format!(r#"{{"type":"job","id":"job-{i}"}}"#)).unwrap();
        }
        let before = j.size_bytes();
        assert!(before > 0);
        j.rewrite(&[
            r#"{"type":"job","id":"job-8"}"#.into(),
            r#"{"type":"job","id":"job-9"}"#.into(),
        ])
        .unwrap();
        assert!(j.size_bytes() < before, "compaction must shrink the file");
        // Appends after a rewrite land in the *new* file.
        j.append(r#"{"type":"job","id":"job-10"}"#).unwrap();
        let reopened = Journal::open(&path).unwrap();
        let expected = [8, 9, 10].map(|i| format!(r#"{{"type":"job","id":"job-{i}"}}"#));
        assert_eq!(reopened.replayed(), expected);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_torn_write_fails_the_append_and_recovery_truncates() {
        let path = tmp("fault-torn.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.set_faults(Faults::parse("seed=7,journal.torn_write=1.0:1").unwrap());
        let err = j.append(r#"{"type":"job","id":"job-1"}"#);
        assert!(err.is_err(), "a torn write must surface as an error");
        // The fault has a fire limit of 1: later appends succeed, even
        // though the torn prefix sits mid-file.
        j.append(r#"{"type":"job","id":"job-2"}"#).unwrap();
        j.append(r#"{"type":"job","id":"job-3"}"#).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        let has = |id: &str| j.replayed().iter().any(|p| p.contains(&format!(r#""{id}""#)));
        assert!(!has("job-1"), "the torn record must not replay");
        assert!(has("job-2"), "the record glued after the tear is recovered by magic scan");
        assert!(has("job-3"), "records after the tear survive");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn injected_bit_flip_reports_success_but_is_dropped_at_recovery() {
        let path = tmp("fault-flip.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.set_faults(Faults::parse("seed=11,journal.bit_flip=1.0:1").unwrap());
        j.append(r#"{"type":"job","id":"job-1"}"#).unwrap();
        j.append(r#"{"type":"job","id":"job-2"}"#).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 1, "the silently corrupted record must be dropped");
        assert_eq!(j.skipped_lines(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn fsync_always_roundtrips() {
        let path = tmp("fsync.jsonl");
        let _ = std::fs::remove_file(&path);
        let mut j = Journal::open(&path).unwrap();
        j.set_fsync(FsyncPolicy::Always);
        j.append(r#"{"type":"job","id":"job-1"}"#).unwrap();
        drop(j);
        let j = Journal::open(&path).unwrap();
        assert_eq!(j.replayed().len(), 1);
        let _ = std::fs::remove_file(&path);
    }
}
