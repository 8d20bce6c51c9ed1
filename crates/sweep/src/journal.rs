//! The append-only scenario journal: crash durability for sweeps.
//!
//! A sweep over thousands of scenarios must survive the death of its
//! process — a panic, an OOM kill, a pre-empted spot instance. The
//! journal is a JSONL file where line 1 is a [`JournalHeader`] and every
//! subsequent line is one completed scenario's [`JournalEntry`], flushed
//! and fsync'd the moment the scenario finishes. On resume, completed
//! entries are replayed from the journal and only the remaining
//! scenarios execute.
//!
//! # Durability model
//!
//! * The header is written and fsync'd before any scenario runs, so a
//!   kill at any later point always leaves a journal with a complete,
//!   parseable first line.
//! * Each entry is one line, written with a single `write_all`, flushed,
//!   and `fdatasync`'d before the scenario is reported complete. A kill
//!   mid-write can therefore tear **at most the final line** of the
//!   file.
//! * [`read_journal`] counts only newline-terminated lines; a torn
//!   trailing fragment (and, defensively, a terminated-but-unparseable
//!   final line) is dropped, and that scenario simply re-runs. A
//!   malformed line anywhere *else* is real corruption and is reported
//!   as [`JournalError::Corrupt`].
//!
//! # Compatibility rule
//!
//! The header records the sweep name, the scenario count, and a
//! [`spec_hash`] over the canonical serialization of every expanded
//! scenario. A journal may only be resumed against a spec whose name,
//! count, and hash all match — anything else is a stale journal from a
//! different (or edited) spec and is rejected before any replay.
//! Because a scenario's canonical serialization deliberately omits
//! `wall_timeout_ms` (wall-clock deadlines are host-dependent), a resume
//! may change wall timeouts without invalidating the journal; every
//! other field change does.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use serde::{Deserialize, Serialize, Value};
use triosim_des::{fnv1a, FNV_OFFSET};

use crate::spec::Scenario;

/// The magic string identifying a sweep journal's header line.
pub const JOURNAL_MAGIC: &str = "triosim-sweep";
/// The journal format version this crate reads and writes.
pub const JOURNAL_VERSION: u64 = 1;

/// Classifies a journaled error entry, so resumed outcomes rebuild the
/// same structured error a live run would have produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// A structured simulation error (fault-induced termination,
    /// invalid configuration, unparseable scenario field).
    Sim,
    /// The scenario's worker panicked and was isolated.
    Panic,
    /// The scenario blew an axis of its run budget.
    Budget,
}

impl ErrorKind {
    /// The stable string form used in journal lines.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Sim => "sim",
            ErrorKind::Panic => "panic",
            ErrorKind::Budget => "budget",
        }
    }

    fn parse(s: &str) -> Option<Self> {
        match s {
            "sim" => Some(ErrorKind::Sim),
            "panic" => Some(ErrorKind::Panic),
            "budget" => Some(ErrorKind::Budget),
            _ => None,
        }
    }
}

/// Line 1 of every journal: identifies the sweep the entries belong to.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalHeader {
    /// The sweep's name (from the spec).
    pub name: String,
    /// [`spec_hash`] of the fully expanded scenario vector.
    pub spec_hash: u64,
    /// Total number of scenarios in the sweep.
    pub total: usize,
    /// The raw spec text, so `--resume` can reconstruct the sweep
    /// without the original spec file.
    pub spec_text: String,
}

impl JournalHeader {
    /// Rejects resuming against a different (or edited) spec.
    ///
    /// # Errors
    ///
    /// [`JournalError::Mismatch`] naming the first differing property.
    pub fn check_compatible(
        &self,
        name: &str,
        spec_hash: u64,
        total: usize,
    ) -> Result<(), JournalError> {
        if self.name != name {
            return Err(JournalError::Mismatch(format!(
                "journal is for sweep `{}`, spec is `{name}`",
                self.name
            )));
        }
        if self.total != total {
            return Err(JournalError::Mismatch(format!(
                "journal has {} scenarios, spec expands to {total}",
                self.total
            )));
        }
        if self.spec_hash != spec_hash {
            return Err(JournalError::Mismatch(format!(
                "journal spec hash {:016x} != spec hash {spec_hash:016x} \
                 (the spec changed since the journal was written)",
                self.spec_hash
            )));
        }
        Ok(())
    }

    fn to_line(&self) -> String {
        let v = Value::Object(vec![
            ("journal".into(), JOURNAL_MAGIC.to_value()),
            ("version".into(), JOURNAL_VERSION.to_value()),
            ("name".into(), self.name.to_value()),
            (
                "spec_hash".into(),
                format!("{:016x}", self.spec_hash).to_value(),
            ),
            ("total".into(), self.total.to_value()),
            ("spec".into(), self.spec_text.to_value()),
        ]);
        serde_json::to_string(&v).expect("journal headers are plain JSON")
    }

    fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let magic: String = de_field(&v, "journal")?;
        if magic != JOURNAL_MAGIC {
            return Err(format!("not a sweep journal (magic `{magic}`)"));
        }
        let version: u64 = de_field(&v, "version")?;
        if version != JOURNAL_VERSION {
            return Err(format!(
                "unsupported journal version {version} (this build reads {JOURNAL_VERSION})"
            ));
        }
        let hash_hex: String = de_field(&v, "spec_hash")?;
        let spec_hash = u64::from_str_radix(&hash_hex, 16)
            .map_err(|_| format!("bad spec_hash `{hash_hex}`"))?;
        Ok(JournalHeader {
            name: de_field(&v, "name")?,
            spec_hash,
            total: de_field(&v, "total")?,
            spec_text: de_field(&v, "spec")?,
        })
    }
}

/// How one journaled scenario ended.
#[derive(Debug, Clone, PartialEq)]
pub enum EntryOutcome {
    /// The scenario completed; its canonical report is stored verbatim.
    Report(Value),
    /// The scenario failed deterministically; the message is stored so a
    /// resumed outcome renders the identical error.
    Error {
        /// What class of failure this was.
        kind: ErrorKind,
        /// The error's display string.
        message: String,
    },
}

/// One completed scenario, as recorded in the journal.
///
/// Entries land in **completion** order (whichever worker finishes
/// first writes first); the `index` field is what ties an entry back to
/// its scenario, so replay is independent of write order.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// The scenario's index in the expanded spec.
    pub index: usize,
    /// The scenario's label (for humans reading the journal).
    pub label: String,
    /// The result being made durable.
    pub outcome: EntryOutcome,
}

impl JournalEntry {
    fn to_line(&self) -> String {
        let mut fields = vec![
            ("index".into(), self.index.to_value()),
            ("label".into(), self.label.to_value()),
        ];
        match &self.outcome {
            EntryOutcome::Report(report) => fields.push(("report".into(), report.clone())),
            EntryOutcome::Error { kind, message } => {
                fields.push(("error".into(), message.to_value()));
                fields.push(("error_kind".into(), kind.as_str().to_value()));
            }
        }
        serde_json::to_string(&Value::Object(fields)).expect("journal entries are plain JSON")
    }

    fn parse(line: &str) -> Result<Self, String> {
        let v: Value = serde_json::from_str(line).map_err(|e| e.to_string())?;
        let index: usize = de_field(&v, "index")?;
        let label: String = de_field(&v, "label")?;
        let outcome = if let Some(report) = v.get("report") {
            EntryOutcome::Report(report.clone())
        } else {
            let message: String = de_field(&v, "error")?;
            let kind_str: String = de_field(&v, "error_kind")?;
            let kind = ErrorKind::parse(&kind_str)
                .ok_or_else(|| format!("unknown error_kind `{kind_str}`"))?;
            EntryOutcome::Error { kind, message }
        };
        Ok(JournalEntry {
            index,
            label,
            outcome,
        })
    }
}

fn de_field<T: Deserialize>(v: &Value, name: &str) -> Result<T, String> {
    let field = v
        .get(name)
        .ok_or_else(|| format!("missing field `{name}`"))?;
    T::from_value(field).map_err(|e| format!("field `{name}`: {e}"))
}

/// What went wrong reading or writing a journal.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalError {
    /// The underlying file operation failed.
    Io(String),
    /// A non-final journal line is malformed — the file is damaged
    /// beyond what the torn-tail tolerance covers.
    Corrupt {
        /// 1-based line number of the malformed line.
        line: usize,
        /// What failed to parse, or which invariant broke.
        detail: String,
    },
    /// The journal belongs to a different spec (name, count, or hash
    /// differ) and must not be replayed.
    Mismatch(String),
    /// Another live process holds the journal's lockfile — two writers
    /// appending to the same journal would interleave entries and tear
    /// the durability model, so the second writer is refused.
    Locked {
        /// The lockfile path that is held.
        path: String,
        /// PID recorded in the lockfile (the holder).
        pid: u32,
    },
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal I/O error: {e}"),
            JournalError::Corrupt { line, detail } => {
                write!(f, "corrupt journal at line {line}: {detail}")
            }
            JournalError::Mismatch(detail) => write!(f, "stale journal: {detail}"),
            JournalError::Locked { path, pid } => write!(
                f,
                "journal is locked by live process {pid} ({path}); \
                 a journal admits exactly one writer at a time"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// Exclusive-access guard for one journal file.
///
/// The guard is a `<journal>.lock` sibling created with `create_new`
/// (atomic on every platform the workspace targets) holding the owner's
/// PID. It makes the "exactly one appender" rule a filesystem invariant
/// instead of a convention: a daemon and a CLI invocation — or two
/// daemons — can never interleave entries in the same journal.
///
/// A crash (SIGKILL, power loss) leaves the lockfile behind, so
/// acquisition performs **stale-lock detection**: if the recorded PID is
/// no longer alive, the stale lockfile is removed and acquisition
/// retried. A lockfile whose content is not a PID at all is treated the
/// same way — only this module ever writes lockfiles, so unparseable
/// content is a torn write from a crashed owner, not a live holder.
///
/// Dropping the guard removes the lockfile.
#[derive(Debug)]
pub struct JournalLock {
    path: PathBuf,
}

impl Drop for JournalLock {
    fn drop(&mut self) {
        std::fs::remove_file(&self.path).ok();
    }
}

/// The lockfile sibling of a journal path (`<journal>.lock`).
fn lock_path(journal: &Path) -> PathBuf {
    let mut os = journal.as_os_str().to_owned();
    os.push(".lock");
    PathBuf::from(os)
}

/// Whether `pid` names a currently-running process.
///
/// On Linux this is a `/proc/<pid>` probe — exact and side-effect-free.
/// On platforms without procfs the check degrades conservatively to
/// "alive": a stale lock then needs manual removal, but a live writer is
/// never stomped.
fn pid_alive(pid: u32) -> bool {
    if cfg!(target_os = "linux") {
        Path::new(&format!("/proc/{pid}")).exists()
    } else {
        true
    }
}

impl JournalLock {
    /// Acquires the exclusive-access lock for `journal`.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] when a live process (including this one,
    /// via another writer) holds the lock; [`JournalError::Io`] when the
    /// lockfile cannot be created.
    pub fn acquire(journal: &Path) -> Result<Self, JournalError> {
        let path = lock_path(journal);
        // Two attempts: the second runs only after a stale lock was
        // removed, so the loop cannot spin.
        for attempt in 0..2 {
            match OpenOptions::new().write(true).create_new(true).open(&path) {
                Ok(mut file) => {
                    let pid = std::process::id().to_string();
                    file.write_all(pid.as_bytes())
                        .and_then(|()| file.flush())
                        .and_then(|()| file.sync_all())
                        .map_err(|e| io_err(&path, &e))?;
                    return Ok(JournalLock { path });
                }
                Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists && attempt == 0 => {
                    let content = std::fs::read_to_string(&path).unwrap_or_default();
                    match content.trim().parse::<u32>() {
                        Ok(pid) if pid_alive(pid) => {
                            return Err(JournalError::Locked {
                                path: path.display().to_string(),
                                pid,
                            });
                        }
                        // Dead owner or torn lockfile: reclaim and retry.
                        _ => {
                            std::fs::remove_file(&path).ok();
                        }
                    }
                }
                Err(e) => return Err(io_err(&path, &e)),
            }
        }
        // The retry after a stale-lock removal raced another reclaimer;
        // report the file as held rather than looping.
        let pid = std::fs::read_to_string(&path)
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(0);
        Err(JournalError::Locked {
            path: path.display().to_string(),
            pid,
        })
    }
}

/// Appends fsync'd scenario entries to a journal file.
///
/// Shared across sweep workers behind `&self`: the file handle is
/// mutex-protected, and each entry is one atomic-enough
/// write-flush-fdatasync sequence (see the module docs for the tear
/// model this guarantees).
#[derive(Debug)]
pub struct JournalWriter {
    file: Mutex<File>,
    /// Held for the writer's whole lifetime; dropping the writer
    /// releases the journal for the next appender.
    _lock: JournalLock,
}

impl JournalWriter {
    /// Creates (truncating) a journal at `path` and makes its header
    /// durable before returning. The journal's [`JournalLock`] is
    /// acquired first and held until the writer is dropped.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] if a live process already holds the
    /// journal; [`JournalError::Io`] if the file cannot be created or
    /// synced.
    pub fn create(path: &Path, header: &JournalHeader) -> Result<Self, JournalError> {
        let lock = JournalLock::acquire(path)?;
        let mut file = File::create(path).map_err(|e| io_err(path, &e))?;
        let mut line = header.to_line();
        line.push('\n');
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_all())
            .map_err(|e| io_err(path, &e))?;
        Ok(JournalWriter {
            file: Mutex::new(file),
            _lock: lock,
        })
    }

    /// Opens an existing journal for appending (resume keeps extending
    /// the same file, so a second crash is covered too).
    ///
    /// Before appending, any torn trailing fragment (bytes after the
    /// last newline — what a mid-write kill leaves behind) is truncated
    /// away. Appending directly after the fragment would fuse it with
    /// the next entry into a malformed *middle* line, which a later
    /// resume would rightly reject as corruption; truncation keeps the
    /// journal resumable through any number of kills.
    ///
    /// # Errors
    ///
    /// [`JournalError::Locked`] if a live process already holds the
    /// journal; [`JournalError::Io`] if the file cannot be opened or
    /// truncated; [`JournalError::Corrupt`] if it contains no complete
    /// line at all.
    pub fn open_append(path: &Path) -> Result<Self, JournalError> {
        use std::io::{Read, Seek, SeekFrom};
        let lock = JournalLock::acquire(path)?;
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err(path, &e))?;
        let mut text = Vec::new();
        file.read_to_end(&mut text).map_err(|e| io_err(path, &e))?;
        let keep = match text.iter().rposition(|&b| b == b'\n') {
            Some(pos) => (pos + 1) as u64,
            None => {
                return Err(JournalError::Corrupt {
                    line: 1,
                    detail: "no complete header line".into(),
                })
            }
        };
        if keep < text.len() as u64 {
            file.set_len(keep).map_err(|e| io_err(path, &e))?;
        }
        file.seek(SeekFrom::Start(keep))
            .map_err(|e| io_err(path, &e))?;
        Ok(JournalWriter {
            file: Mutex::new(file),
            _lock: lock,
        })
    }

    /// Makes one completed scenario durable: write, flush, fdatasync.
    ///
    /// # Errors
    ///
    /// [`JournalError::Io`] if any step fails; the caller decides
    /// whether a sweep without durability should continue.
    pub fn record(&self, entry: &JournalEntry) -> Result<(), JournalError> {
        let mut line = entry.to_line();
        line.push('\n');
        let mut file = self.file.lock().expect("journal writer mutex poisoned");
        file.write_all(line.as_bytes())
            .and_then(|()| file.flush())
            .and_then(|()| file.sync_data())
            .map_err(|e| JournalError::Io(e.to_string()))
    }
}

fn io_err(path: &Path, e: &std::io::Error) -> JournalError {
    JournalError::Io(format!("{}: {e}", path.display()))
}

/// Reads a journal back: header plus every recoverable entry.
///
/// Only newline-terminated lines count. A torn trailing fragment — the
/// one artifact a mid-write kill can produce — is silently dropped, as
/// is (defensively) a terminated-but-unparseable **final** line; the
/// affected scenario re-runs on resume. Duplicate indices keep the last
/// entry (a journal extended across several resumes may re-record a
/// scenario whose entry was torn the first time).
///
/// # Errors
///
/// [`JournalError::Io`] if the file cannot be read,
/// [`JournalError::Corrupt`] for a missing/malformed header, a
/// malformed non-final line, or an entry index outside the header's
/// scenario count.
pub fn read_journal(path: &Path) -> Result<(JournalHeader, Vec<JournalEntry>), JournalError> {
    let text = std::fs::read_to_string(path).map_err(|e| io_err(path, &e))?;
    // Keep only complete (newline-terminated) lines: everything after
    // the last '\n' is a torn write.
    let complete = match text.rfind('\n') {
        Some(end) => &text[..end],
        None => {
            return Err(JournalError::Corrupt {
                line: 1,
                detail: "no complete header line".into(),
            })
        }
    };
    let lines: Vec<&str> = complete.split('\n').collect();
    let header = JournalHeader::parse(lines[0])
        .map_err(|detail| JournalError::Corrupt { line: 1, detail })?;
    let mut entries: Vec<JournalEntry> = Vec::with_capacity(lines.len() - 1);
    for (i, line) in lines.iter().enumerate().skip(1) {
        if line.is_empty() {
            continue;
        }
        let is_last = i == lines.len() - 1;
        let entry = match JournalEntry::parse(line) {
            Ok(e) => e,
            // The final complete line gets the same tolerance as a torn
            // fragment: drop it and re-run that scenario.
            Err(_) if is_last => continue,
            Err(detail) => {
                return Err(JournalError::Corrupt {
                    line: i + 1,
                    detail,
                })
            }
        };
        if entry.index >= header.total {
            return Err(JournalError::Corrupt {
                line: i + 1,
                detail: format!(
                    "entry index {} out of range (sweep has {} scenarios)",
                    entry.index, header.total
                ),
            });
        }
        entries.push(entry);
    }
    // Last write wins for duplicate indices.
    let mut by_index: Vec<Option<JournalEntry>> = vec![None; header.total];
    for e in entries {
        let slot = e.index;
        by_index[slot] = Some(e);
    }
    Ok((header, by_index.into_iter().flatten().collect()))
}

/// FNV-1a hash over the sweep name and the canonical serialization of
/// every expanded scenario — the journal compatibility fingerprint.
///
/// Canonical scenario JSON omits `wall_timeout_ms`, so resumes tolerate
/// changed wall-clock deadlines (host-dependent) while any other edit
/// to the spec changes the hash and invalidates the journal.
pub fn spec_hash(name: &str, scenarios: &[Scenario]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, name.as_bytes());
    h = fnv1a(h, b"\0");
    for s in scenarios {
        let canonical =
            serde_json::to_string(&s.to_value()).expect("scenarios serialize to plain JSON");
        h = fnv1a(h, canonical.as_bytes());
        h = fnv1a(h, b"\n");
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    fn temp_path(tag: &str) -> PathBuf {
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let seq = SEQ.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "triosim-journal-test-{}-{seq}-{tag}.jsonl",
            std::process::id()
        ))
    }

    fn header(total: usize) -> JournalHeader {
        JournalHeader {
            name: "unit".into(),
            spec_hash: 0xdead_beef_0123_4567,
            total,
            spec_text: r#"{"scenarios":[{}]}"#.into(),
        }
    }

    fn report_entry(index: usize) -> JournalEntry {
        JournalEntry {
            index,
            label: format!("s{index}"),
            outcome: EntryOutcome::Report(Value::Object(vec![(
                "total_time_s".into(),
                Value::Float(1.5),
            )])),
        }
    }

    #[test]
    fn write_read_round_trip() {
        let path = temp_path("roundtrip");
        let w = JournalWriter::create(&path, &header(3)).unwrap();
        w.record(&report_entry(1)).unwrap();
        w.record(&JournalEntry {
            index: 0,
            label: "s0".into(),
            outcome: EntryOutcome::Error {
                kind: ErrorKind::Panic,
                message: "scenario 0 panicked: boom".into(),
            },
        })
        .unwrap();
        let (h, entries) = read_journal(&path).unwrap();
        assert_eq!(h, header(3));
        // Entries come back index-sorted regardless of write order.
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].index, 0);
        assert!(matches!(
            &entries[0].outcome,
            EntryOutcome::Error { kind: ErrorKind::Panic, message } if message.contains("boom")
        ));
        assert_eq!(entries[1], report_entry(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_final_line_is_dropped() {
        let path = temp_path("torn");
        let w = JournalWriter::create(&path, &header(3)).unwrap();
        w.record(&report_entry(0)).unwrap();
        drop(w);
        // Simulate a kill mid-write: an unterminated fragment at the end.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(r#"{"index":1,"label":"s1","repo"#);
        std::fs::write(&path, &text).unwrap();
        let (_, entries) = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 1, "torn fragment dropped");
        assert_eq!(entries[0].index, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unparseable_final_complete_line_is_dropped() {
        let path = temp_path("badtail");
        let w = JournalWriter::create(&path, &header(3)).unwrap();
        w.record(&report_entry(0)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("{\"index\":1,\"label\":\"s1\",\"garbage\n");
        std::fs::write(&path, &text).unwrap();
        let (_, entries) = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_append_heals_a_torn_tail() {
        let path = temp_path("heal");
        let w = JournalWriter::create(&path, &header(3)).unwrap();
        w.record(&report_entry(0)).unwrap();
        drop(w);
        // Kill mid-write, then resume: the append must not fuse the torn
        // fragment with the next entry into a malformed middle line.
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str(r#"{"index":1,"label":"s1","repo"#);
        std::fs::write(&path, &text).unwrap();
        let w = JournalWriter::open_append(&path).unwrap();
        w.record(&report_entry(1)).unwrap();
        drop(w);
        let (_, entries) = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 2, "fragment gone, fresh entry intact");
        assert_eq!(entries[1], report_entry(1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_truncated_mid_header_is_corruption_not_a_panic() {
        // A kill during the very first write can leave a prefix of the
        // header and nothing else — no newline anywhere in the file.
        let path = temp_path("midheader");
        std::fs::write(&path, r#"{"journal":"trios"#).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(&err, JournalError::Corrupt { line: 1, detail }
                if detail.contains("no complete header line")),
            "got {err:?}"
        );
        let err = JournalWriter::open_append(&path).unwrap_err();
        assert!(
            matches!(&err, JournalError::Corrupt { line: 1, detail }
                if detail.contains("no complete header line")),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn complete_header_without_newline_is_corruption_not_a_panic() {
        // The header text is fully present but never terminated: still
        // not a single complete line, so nothing is trustworthy.
        let path = temp_path("headnonl");
        let full = temp_path("headnonl-src");
        JournalWriter::create(&full, &header(2)).unwrap();
        let text = std::fs::read_to_string(&full).unwrap();
        std::fs::write(&path, text.trim_end_matches('\n')).unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 1, .. }),
            "got {err:?}"
        );
        let err = JournalWriter::open_append(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 1, .. }),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&full).ok();
    }

    #[test]
    fn terminated_partial_header_is_corruption_not_a_panic() {
        // Rarer shape: the header line is truncated but something (an
        // fs repair, a concatenation bug) supplied a trailing newline.
        // The line is complete, so tail-tolerance must not apply to it.
        let path = temp_path("tornheader");
        std::fs::write(&path, "{\"journal\":\"trios\n").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 1, .. }),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn malformed_middle_line_is_corruption() {
        let path = temp_path("corrupt");
        let w = JournalWriter::create(&path, &header(3)).unwrap();
        w.record(&report_entry(0)).unwrap();
        drop(w);
        let mut text = std::fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n");
        std::fs::write(&path, &text).unwrap();
        // Re-append a valid entry after the damage.
        let w = JournalWriter::open_append(&path).unwrap();
        w.record(&report_entry(2)).unwrap();
        drop(w);
        let err = read_journal(&path).unwrap_err();
        assert!(
            matches!(err, JournalError::Corrupt { line: 3, .. }),
            "got {err:?}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn out_of_range_index_is_corruption() {
        let path = temp_path("range");
        let w = JournalWriter::create(&path, &header(2)).unwrap();
        w.record(&report_entry(5)).unwrap();
        // A valid trailing entry so the bad line is not in tail-tolerance.
        w.record(&report_entry(1)).unwrap();
        drop(w);
        let err = read_journal(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 2, .. }));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn duplicate_index_keeps_the_last_entry() {
        let path = temp_path("dup");
        let w = JournalWriter::create(&path, &header(2)).unwrap();
        w.record(&JournalEntry {
            index: 0,
            label: "first".into(),
            outcome: EntryOutcome::Report(Value::Null),
        })
        .unwrap();
        w.record(&JournalEntry {
            index: 0,
            label: "second".into(),
            outcome: EntryOutcome::Report(Value::Null),
        })
        .unwrap();
        drop(w);
        let (_, entries) = read_journal(&path).unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].label, "second");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compatibility_check_names_the_difference() {
        let h = header(3);
        assert!(h.check_compatible("unit", h.spec_hash, 3).is_ok());
        let err = h.check_compatible("other", h.spec_hash, 3).unwrap_err();
        assert!(err.to_string().contains("sweep `unit`"));
        let err = h.check_compatible("unit", h.spec_hash, 4).unwrap_err();
        assert!(err.to_string().contains("expands to 4"));
        let err = h.check_compatible("unit", 1, 3).unwrap_err();
        assert!(err.to_string().contains("spec changed"));
    }

    #[test]
    fn spec_hash_ignores_wall_timeout_only() {
        let base = Scenario::default();
        let with_wall = Scenario {
            wall_timeout_ms: Some(1000),
            ..base.clone()
        };
        let with_events = Scenario {
            max_events: Some(1000),
            ..base.clone()
        };
        let h0 = spec_hash("s", std::slice::from_ref(&base));
        assert_eq!(
            h0,
            spec_hash("s", &[with_wall]),
            "wall timeout is host-dependent and excluded from the fingerprint"
        );
        assert_ne!(h0, spec_hash("s", &[with_events]));
        assert_ne!(h0, spec_hash("other", std::slice::from_ref(&base)));
        assert_ne!(h0, spec_hash("s", &[base.clone(), base]));
    }

    #[test]
    fn second_writer_on_a_live_journal_is_refused() {
        let path = temp_path("locked");
        let w = JournalWriter::create(&path, &header(2)).unwrap();
        // Same journal, second writer, while the first is alive: the
        // lockfile holds our own (live) PID, so both create and append
        // are refused with the typed Locked error.
        let err = JournalWriter::create(&path, &header(2)).unwrap_err();
        assert!(
            matches!(err, JournalError::Locked { pid, .. } if pid == std::process::id()),
            "got {err:?}"
        );
        let err = JournalWriter::open_append(&path).unwrap_err();
        assert!(matches!(err, JournalError::Locked { .. }), "got {err:?}");
        drop(w);
        // Dropping the writer releases the lock for the next appender.
        let w = JournalWriter::open_append(&path).unwrap();
        w.record(&report_entry(0)).unwrap();
        drop(w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_lock_from_a_dead_process_is_reclaimed() {
        let path = temp_path("stalelock");
        let w = JournalWriter::create(&path, &header(2)).unwrap();
        drop(w);
        // A SIGKILL'd owner leaves its lockfile behind. PID u32::MAX is
        // above every kernel's pid_max, so it is guaranteed dead.
        let lock = {
            let mut os = path.as_os_str().to_owned();
            os.push(".lock");
            PathBuf::from(os)
        };
        std::fs::write(&lock, u32::MAX.to_string()).unwrap();
        let w = JournalWriter::open_append(&path).unwrap();
        w.record(&report_entry(1)).unwrap();
        drop(w);
        assert!(!lock.exists(), "lock released on drop");
        // A torn lockfile (garbage content) is also reclaimed: only this
        // module writes lockfiles, so garbage means a crashed owner.
        std::fs::write(&lock, "not a pid").unwrap();
        let w = JournalWriter::open_append(&path).unwrap();
        drop(w);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn file_without_any_newline_is_header_corruption() {
        let path = temp_path("nonewline");
        std::fs::write(&path, "{\"journal\":\"trios").unwrap();
        let err = read_journal(&path).unwrap_err();
        assert!(matches!(err, JournalError::Corrupt { line: 1, .. }));
        std::fs::remove_file(&path).ok();
    }
}
