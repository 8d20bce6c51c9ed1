//! The durable half of the service: content-addressed jobs on disk.
//!
//! A job is a directory under `<data_dir>/jobs/<id>/` whose name is the
//! FNV-1a hash of the submitted spec text — submission is therefore
//! idempotent (resubmitting the same bytes addresses the same job) and
//! a finished job's result is served from disk forever after.
//!
//! The directory layout doubles as the job's state machine, readable
//! after any crash with no index file to go stale:
//!
//! ```text
//! jobs/<id>/spec.json      the submitted spec, verbatim   (always)
//! jobs/<id>/journal.jsonl  per-scenario sweep journal     (while running)
//! jobs/<id>/ckpt/          per-scenario engine snapshots  (while running)
//! jobs/<id>/result.json    canonical result bytes         (terminal: done)
//! jobs/<id>/dead.json      structured failure record      (terminal: dead)
//! ```
//!
//! `spec.json` present with neither terminal file means the job was
//! in flight when the process died; [`JobStore::scan_incomplete`] finds
//! exactly those directories at startup and the server requeues them —
//! that is the whole crash-recovery story. Every file is written with
//! the tmp-sibling + fsync + rename protocol, so a terminal file is
//! either absent or complete, never torn.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use serde::Value;
use triosim_des::{fnv1a, FNV_OFFSET};

/// The content-addressed id of a spec: 16 lowercase hex digits.
pub fn job_id(spec_text: &str) -> String {
    format!("{:016x}", fnv1a(FNV_OFFSET, spec_text.as_bytes()))
}

/// Where one job keeps its artifacts. Handed to the [`JobRunner`] so the
/// execution layer journals and checkpoints into the job's own directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPaths {
    /// The job's directory.
    pub dir: PathBuf,
}

impl JobPaths {
    /// The submitted spec, byte-verbatim.
    pub fn spec(&self) -> PathBuf {
        self.dir.join("spec.json")
    }
    /// The per-scenario sweep journal.
    pub fn journal(&self) -> PathBuf {
        self.dir.join("journal.jsonl")
    }
    /// Per-scenario engine snapshots.
    pub fn ckpt_dir(&self) -> PathBuf {
        self.dir.join("ckpt")
    }
    /// The canonical result (terminal success).
    pub fn result(&self) -> PathBuf {
        self.dir.join("result.json")
    }
    /// The structured failure record (terminal failure).
    pub fn dead(&self) -> PathBuf {
        self.dir.join("dead.json")
    }
}

/// A job's lifecycle state, as reported by `/jobs/<id>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing attempt `attempt` (1-based).
    Running {
        /// Current attempt number.
        attempt: u32,
    },
    /// A transient failure; the worker is waiting out the backoff before
    /// attempt `attempt + 1`.
    Backoff {
        /// The attempt that just failed.
        attempt: u32,
        /// The deterministic delay being waited, milliseconds.
        delay_ms: u64,
    },
    /// Finished; `result.json` holds the canonical bytes.
    Done,
    /// Dead-lettered; `dead.json` holds the structured error.
    Dead,
}

impl JobState {
    /// The state's wire name.
    pub fn name(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running { .. } => "running",
            JobState::Backoff { .. } => "backoff",
            JobState::Done => "done",
            JobState::Dead => "dead",
        }
    }
}

/// How one job execution attempt failed — the classification that drives
/// the retry machinery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunError {
    /// Worth retrying: an I/O hiccup, a panic, anything environmental.
    Transient(String),
    /// Deterministic: the same spec will fail the same way forever, so
    /// retrying is pure waste. Dead-letters immediately.
    Permanent(String),
    /// The attempt was cut short by a graceful drain. The job stays
    /// incomplete on disk and is recovered on the next start.
    Interrupted,
}

/// What the server needs from an execution engine. `triosim` implements
/// this over its sweep runner; tests implement it with stubs. The
/// contract that makes recovery work: an implementation must journal its
/// progress under [`JobPaths`] such that a later attempt (same paths,
/// higher `attempt`) resumes rather than restarts, and its success value
/// must be byte-deterministic for a given spec.
pub trait JobRunner: Send + Sync + 'static {
    /// Cheap admission-time validation (parse the spec, reject garbage
    /// before it occupies a queue slot). The error is returned to the
    /// client in a `400`.
    ///
    /// # Errors
    ///
    /// A human-readable rejection reason.
    fn validate(&self, spec_text: &str) -> Result<(), String>;

    /// Executes (or resumes) the job, returning the canonical result
    /// text. `attempt` is 1-based; implementations use `attempt > 1` to
    /// re-execute previously-panicked work. `cancel` flips to `true`
    /// during a graceful drain — the runner should checkpoint and return
    /// [`RunError::Interrupted`] promptly. (It is an `Arc` so runners
    /// can hand the flag onward to their own worker pools.)
    ///
    /// # Errors
    ///
    /// A [`RunError`] classifying the failure for the retry machinery.
    fn run(
        &self,
        spec_text: &str,
        paths: &JobPaths,
        attempt: u32,
        cancel: &std::sync::Arc<std::sync::atomic::AtomicBool>,
    ) -> Result<String, RunError>;
}

/// Writes `bytes` to `path` via the tmp-sibling + fsync + rename
/// protocol: readers see the old content or the new, never a torn mix.
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut staging = path.as_os_str().to_owned();
    staging.push(".tmp");
    let staging = PathBuf::from(staging);
    {
        let mut f = fs::File::create(&staging)?;
        io::Write::write_all(&mut f, bytes)?;
        f.sync_all()?;
    }
    fs::rename(&staging, path)
}

/// The on-disk job store rooted at `<data_dir>/jobs/`.
#[derive(Debug)]
pub struct JobStore {
    jobs_dir: PathBuf,
}

impl JobStore {
    /// Opens (creating if needed) the store under `data_dir`.
    ///
    /// # Errors
    ///
    /// Propagates directory-creation failures.
    pub fn open(data_dir: &Path) -> io::Result<Self> {
        let jobs_dir = data_dir.join("jobs");
        fs::create_dir_all(&jobs_dir)?;
        Ok(JobStore { jobs_dir })
    }

    /// The artifact paths for job `id`.
    pub fn paths(&self, id: &str) -> JobPaths {
        JobPaths {
            dir: self.jobs_dir.join(id),
        }
    }

    /// Persists a newly-admitted job's spec (creating its directory).
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn persist_spec(&self, id: &str, spec_text: &str) -> io::Result<JobPaths> {
        let paths = self.paths(id);
        fs::create_dir_all(&paths.dir)?;
        write_atomic(&paths.spec(), spec_text.as_bytes())?;
        Ok(paths)
    }

    /// Removes a job directory entirely (shed jobs must not be
    /// resurrected by the next recovery scan).
    pub fn remove(&self, id: &str) {
        fs::remove_dir_all(self.paths(id).dir).ok();
    }

    /// Records a job's terminal success: the canonical result bytes,
    /// written atomically. The journal and checkpoints have served their
    /// purpose and are cleaned up.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_result(&self, id: &str, result_text: &str) -> io::Result<()> {
        let paths = self.paths(id);
        write_atomic(&paths.result(), result_text.as_bytes())?;
        fs::remove_file(paths.journal()).ok();
        fs::remove_file(journal_lock_path(&paths.journal())).ok();
        fs::remove_dir_all(paths.ckpt_dir()).ok();
        Ok(())
    }

    /// Records a job's terminal failure: a structured dead-letter with
    /// the classified error and the attempts consumed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures.
    pub fn write_dead(&self, id: &str, attempts: u32, error: &str) -> io::Result<()> {
        let record = Value::Object(vec![
            ("id".to_string(), Value::Str(id.to_string())),
            ("attempts".to_string(), Value::UInt(u64::from(attempts))),
            ("error".to_string(), Value::Str(error.to_string())),
        ]);
        let text = serde_json::to_string(&record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        write_atomic(&self.paths(id).dead(), text.as_bytes())
    }

    /// The state a job directory implies, or `None` if the job is
    /// unknown. Used to answer status queries for jobs from previous
    /// server lives that are not in the in-memory map.
    pub fn state_on_disk(&self, id: &str) -> Option<JobState> {
        let paths = self.paths(id);
        if paths.result().is_file() {
            Some(JobState::Done)
        } else if paths.dead().is_file() {
            Some(JobState::Dead)
        } else if paths.spec().is_file() {
            Some(JobState::Queued)
        } else {
            None
        }
    }

    /// Scans for jobs that were in flight when the previous process
    /// died: a `spec.json` with neither terminal file. Returns
    /// `(id, spec_text)` pairs sorted by id (deterministic requeue
    /// order). Directories with an unreadable spec are skipped with a
    /// warning rather than wedging startup.
    ///
    /// # Errors
    ///
    /// Propagates a failure to list the jobs directory itself.
    pub fn scan_incomplete(&self) -> io::Result<Vec<(String, String)>> {
        let mut incomplete = Vec::new();
        for entry in fs::read_dir(&self.jobs_dir)?.flatten() {
            let Ok(id) = entry.file_name().into_string() else {
                continue;
            };
            let paths = self.paths(&id);
            if !paths.spec().is_file() || paths.result().is_file() || paths.dead().is_file() {
                continue;
            }
            // A previous life's journal lock is definitionally stale and
            // would otherwise cost the resuming writer a reclaim cycle.
            fs::remove_file(journal_lock_path(&paths.journal())).ok();
            match fs::read_to_string(paths.spec()) {
                Ok(spec_text) => incomplete.push((id, spec_text)),
                Err(e) => eprintln!("warning: skipping unreadable job {id}: {e}"),
            }
        }
        incomplete.sort();
        Ok(incomplete)
    }
}

/// The lockfile the sweep journal layer creates next to a journal.
fn journal_lock_path(journal: &Path) -> PathBuf {
    let mut p = journal.as_os_str().to_owned();
    p.push(".lock");
    PathBuf::from(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_store(tag: &str) -> (PathBuf, JobStore) {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "triosim-server-job-{tag}-{}-{n}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let store = JobStore::open(&dir).unwrap();
        (dir, store)
    }

    #[test]
    fn job_ids_are_content_addressed() {
        assert_eq!(job_id("spec"), job_id("spec"));
        assert_ne!(job_id("spec"), job_id("spec2"));
        assert_eq!(job_id("x").len(), 16);
    }

    #[test]
    fn lifecycle_files_drive_the_state_machine() {
        let (dir, store) = temp_store("lifecycle");
        assert_eq!(store.state_on_disk("none"), None);
        store.persist_spec("a", "{}").unwrap();
        assert_eq!(store.state_on_disk("a"), Some(JobState::Queued));
        store.write_result("a", "{\"ok\":1}").unwrap();
        assert_eq!(store.state_on_disk("a"), Some(JobState::Done));
        store.persist_spec("b", "{}").unwrap();
        store.write_dead("b", 3, "boom").unwrap();
        assert_eq!(store.state_on_disk("b"), Some(JobState::Dead));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_finds_exactly_the_in_flight_jobs() {
        let (dir, store) = temp_store("scan");
        store.persist_spec("done", "{}").unwrap();
        store.write_result("done", "r").unwrap();
        store.persist_spec("dead", "{}").unwrap();
        store.write_dead("dead", 1, "e").unwrap();
        store.persist_spec("b-inflight", "{\"b\":1}").unwrap();
        store.persist_spec("a-inflight", "{\"a\":1}").unwrap();
        // A stale journal lock from the dead process is swept on scan.
        std::fs::write(store.paths("a-inflight").journal(), "j").unwrap();
        std::fs::write(
            journal_lock_path(&store.paths("a-inflight").journal()),
            "99999",
        )
        .unwrap();
        let found = store.scan_incomplete().unwrap();
        assert_eq!(
            found,
            vec![
                ("a-inflight".to_string(), "{\"a\":1}".to_string()),
                ("b-inflight".to_string(), "{\"b\":1}".to_string()),
            ]
        );
        assert!(!journal_lock_path(&store.paths("a-inflight").journal()).exists());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn terminal_writes_are_atomic_and_clean_up_scratch() {
        let (dir, store) = temp_store("atomic");
        let paths = store.persist_spec("j", "{}").unwrap();
        std::fs::write(paths.journal(), "line\n").unwrap();
        std::fs::create_dir_all(paths.ckpt_dir()).unwrap();
        std::fs::write(paths.ckpt_dir().join("scenario-0.ckpt"), "c").unwrap();
        store.write_result("j", "result-bytes").unwrap();
        assert_eq!(
            std::fs::read_to_string(paths.result()).unwrap(),
            "result-bytes"
        );
        assert!(!paths.journal().exists(), "journal cleaned after success");
        assert!(
            !paths.ckpt_dir().exists(),
            "snapshots cleaned after success"
        );
        // No `.tmp` staging sibling survives.
        let leftovers: Vec<_> = std::fs::read_dir(&paths.dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn removed_jobs_vanish_from_scan() {
        let (dir, store) = temp_store("remove");
        store.persist_spec("shed", "{}").unwrap();
        store.remove("shed");
        assert_eq!(store.state_on_disk("shed"), None);
        assert!(store.scan_incomplete().unwrap().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dead_letters_are_structured() {
        let (dir, store) = temp_store("dead");
        store.persist_spec("d", "{}").unwrap();
        store.write_dead("d", 4, "io: disk full").unwrap();
        let text = std::fs::read_to_string(store.paths("d").dead()).unwrap();
        let v: Value = serde_json::from_str(&text).unwrap();
        assert_eq!(v.get("attempts"), Some(&Value::UInt(4)));
        assert_eq!(v.get("error"), Some(&Value::Str("io: disk full".into())));
        std::fs::remove_dir_all(&dir).ok();
    }
}
