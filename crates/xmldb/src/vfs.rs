//! Filesystem abstraction used by the durability layer.
//!
//! All snapshot and journal I/O goes through a [`Vfs`] so that crash
//! behaviour can be tested deterministically: [`StdVfs`] maps straight to
//! `std::fs`, while [`FaultVfs`] is an in-memory filesystem that models
//! the durable/volatile split of a real disk (written bytes are *volatile*
//! until `sync`) and can inject a failure — or a torn write — at the Nth
//! mutating operation.
//!
//! The trait deliberately exposes low-level primitives (`write`, `append`,
//! `sync`, `rename`) rather than a single "atomically persist" call: the
//! atomic-snapshot and write-ahead protocols are implemented *above* the
//! trait, so every step of those protocols is a distinct injection point.

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

/// Filesystem operations needed by the journal and snapshot code.
///
/// `write` and `append` are **not** durable until a matching [`Vfs::sync`];
/// `rename` is atomic and considered durably recorded once it returns
/// (implementations must sync the parent directory where that matters).
pub trait Vfs: Send + Sync {
    /// Read a file's current contents. `NotFound` if it does not exist.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
    /// Create or truncate `path` and write `bytes` (volatile until synced).
    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Append `bytes` to `path`, creating it if absent (volatile until synced).
    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Make all previously written bytes of `path` durable (fsync).
    fn sync(&self, path: &Path) -> io::Result<()>;
    /// Atomically rename `from` onto `to`, replacing any existing file.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file. Succeeds silently if it does not exist.
    fn remove(&self, path: &Path) -> io::Result<()>;
    /// Whether a file exists.
    fn exists(&self, path: &Path) -> bool;
}

/// The real filesystem.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl StdVfs {
    fn sync_parent_dir(path: &Path) {
        // Make the rename itself durable. Failures are deliberately
        // ignored: directory fsync is not available on every platform,
        // and the rename has already happened.
        if let Some(dir) = path.parent() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
}

impl Vfs for StdVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        f.write_all(bytes)
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        // fsync via a fresh write-capable handle (no truncation):
        // Windows' FlushFileBuffers requires write access, so an
        // O_RDONLY handle would not do. Write-then-reopen-to-sync is a
        // POSIX assumption (the page cache is shared across handles);
        // platforms where that does not hold need a stateful Vfs that
        // keeps the original handle.
        std::fs::OpenOptions::new()
            .write(true)
            .open(path)?
            .sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)?;
        Self::sync_parent_dir(to);
        Ok(())
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            other => other,
        }
    }

    fn exists(&self, path: &Path) -> bool {
        path.exists()
    }
}

/// What an injected fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultMode {
    /// The operation fails with an I/O error and has no effect.
    Error,
    /// For `write`/`append`: only the first `keep` bytes of the buffer
    /// reach the disk — and are treated as durable, as a crashed flush
    /// would leave them — before the error is returned. For any other
    /// operation this behaves like [`FaultMode::Error`].
    Tear {
        /// How many bytes of the buffer survive.
        keep: usize,
    },
}

#[derive(Debug, Clone, Default)]
struct FileState {
    /// What a reader sees right now.
    content: Vec<u8>,
    /// What survives a crash. `None` means the file was never synced and
    /// vanishes entirely on crash.
    durable: Option<Vec<u8>>,
}

#[derive(Debug, Default)]
struct FaultState {
    files: BTreeMap<PathBuf, FileState>,
    /// Count of mutating operations performed so far.
    ops: usize,
    /// One-shot faults keyed by the operation number they fire at.
    faults: BTreeMap<usize, FaultMode>,
    /// Sticky fault: every mutating op from `.0` onward fails with `.1`
    /// until [`FaultVfs::heal`] — models persistent ENOSPC / a dead disk /
    /// a killed process whose later writes never happen.
    sticky: Option<(usize, FaultMode)>,
}

/// An in-memory filesystem with crash semantics and fault injection.
///
/// Mutating operations (`write`, `append`, `sync`, `rename`, `remove`) are
/// numbered from 0. [`FaultVfs::fail_op`] arms a one-shot fault at a given
/// operation number; [`FaultVfs::crash`] simulates power loss, discarding
/// every byte that was not made durable by a `sync` (or carried through an
/// atomic `rename` of a synced file).
#[derive(Debug, Default)]
pub struct FaultVfs {
    state: Mutex<FaultState>,
}

impl FaultVfs {
    /// A fresh, empty in-memory filesystem with no armed fault.
    pub fn new() -> Self {
        Self::default()
    }

    /// Arm a one-shot fault: the `op`-th mutating operation (0-based on
    /// the absolute counter) fails with `mode`. Multiple faults may be
    /// armed at distinct operation numbers; each fires once.
    pub fn fail_op(&self, op: usize, mode: FaultMode) {
        self.lock().faults.insert(op, mode);
    }

    /// Arm a sticky fault: every mutating operation from `op` (0-based on
    /// the absolute counter) onward fails with `mode` until [`heal`] is
    /// called. Models persistent faults — ENOSPC, a failing device — or a
    /// process kill at op `op` (nothing after it ever reaches the disk).
    ///
    /// [`heal`]: FaultVfs::heal
    pub fn fail_from(&self, op: usize, mode: FaultMode) {
        self.lock().sticky = Some((op, mode));
    }

    /// Clear any sticky fault armed by [`FaultVfs::fail_from`]; subsequent
    /// operations succeed again. One-shot faults are left armed.
    pub fn heal(&self) {
        self.lock().sticky = None;
    }

    /// Number of mutating operations performed so far.
    pub fn op_count(&self) -> usize {
        self.lock().ops
    }

    /// Simulate power loss: volatile bytes are discarded, never-synced
    /// files disappear. Any armed fault is cleared (the "process" that
    /// armed it is gone).
    pub fn crash(&self) {
        let mut st = self.lock();
        st.faults.clear();
        st.sticky = None;
        let mut survivors = BTreeMap::new();
        for (path, file) in std::mem::take(&mut st.files) {
            if let Some(durable) = file.durable {
                survivors.insert(
                    path,
                    FileState {
                        content: durable.clone(),
                        durable: Some(durable),
                    },
                );
            }
        }
        st.files = survivors;
    }

    /// Directly overwrite a file's content *and* durable image — used by
    /// tests to model on-disk corruption (bit flips, truncated tails).
    pub fn corrupt(&self, path: &Path, bytes: Vec<u8>) {
        let mut st = self.lock();
        st.files.insert(
            path.to_path_buf(),
            FileState {
                content: bytes.clone(),
                durable: Some(bytes),
            },
        );
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A poisoned lock only means another test thread panicked; the
        // map itself is still structurally sound.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Bump the op counter; if a fault is armed at this op, return its mode.
    /// One-shot faults take precedence over a sticky range (and are
    /// consumed either way).
    fn step(st: &mut FaultState) -> Option<FaultMode> {
        let op = st.ops;
        st.ops += 1;
        let once = st.faults.remove(&op);
        if once.is_some() {
            return once;
        }
        match st.sticky {
            Some((from, mode)) if op >= from => Some(mode),
            _ => None,
        }
    }

    fn injected(op: usize) -> io::Error {
        io::Error::other(format!("injected fault at op {op}"))
    }
}

/// One event in a [`FaultSchedule`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScheduledFault {
    /// One-shot fault at an absolute mutating-op number.
    Once {
        /// Operation number the fault fires at.
        op: usize,
        /// What the fault does.
        mode: FaultMode,
    },
    /// Sticky fault: every operation from `op` onward fails until healed.
    From {
        /// First operation number the fault covers.
        op: usize,
        /// What the fault does.
        mode: FaultMode,
    },
}

/// A deterministic, seed-derived plan of fault injections.
///
/// Crash campaigns generate one schedule per seed, [`arm`] it on a fresh
/// [`FaultVfs`], run a workload, crash, recover, and assert invariants.
/// The same seed always yields the same schedule, so a failing seed is a
/// complete reproducer.
///
/// [`arm`]: FaultSchedule::arm
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    /// The scheduled events, in no particular order.
    pub events: Vec<ScheduledFault>,
}

impl FaultSchedule {
    /// Derive a schedule from `seed`, with fault ops drawn from
    /// `[0, horizon)`. Produces 1–3 one-shot faults (error or torn write)
    /// and, for roughly a third of seeds, a sticky fault range.
    pub fn seeded(seed: u64, horizon: usize) -> Self {
        let mut rng = SplitMix::new(seed);
        let horizon = horizon.max(1);
        let mut events = Vec::new();
        let shots = 1 + (rng.next() % 3) as usize;
        for _ in 0..shots {
            let op = (rng.next() as usize) % horizon;
            let mode = if rng.next().is_multiple_of(2) {
                FaultMode::Error
            } else {
                FaultMode::Tear {
                    keep: (rng.next() % 64) as usize,
                }
            };
            events.push(ScheduledFault::Once { op, mode });
        }
        if rng.next().is_multiple_of(3) {
            let op = (rng.next() as usize) % horizon;
            events.push(ScheduledFault::From {
                op,
                mode: FaultMode::Error,
            });
        }
        Self { events }
    }

    /// Arm every event of this schedule on `vfs`. At most one sticky range
    /// is kept (the last `From` event wins — [`FaultVfs`] models a single
    /// persistent fault at a time).
    pub fn arm(&self, vfs: &FaultVfs) {
        for ev in &self.events {
            match *ev {
                ScheduledFault::Once { op, mode } => vfs.fail_op(op, mode),
                ScheduledFault::From { op, mode } => vfs.fail_from(op, mode),
            }
        }
    }
}

/// SplitMix64 — tiny deterministic PRNG for schedule derivation. Not for
/// cryptography; chosen because identical seeds must yield identical
/// schedules forever (the constants are fixed by the algorithm).
#[derive(Debug, Clone)]
struct SplitMix {
    state: u64,
}

impl SplitMix {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl Vfs for FaultVfs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let st = self.lock();
        st.files
            .get(path)
            .map(|f| f.content.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "no such file"))
    }

    fn write(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        let op = st.ops;
        match Self::step(&mut st) {
            Some(FaultMode::Error) => Err(Self::injected(op)),
            Some(FaultMode::Tear { keep }) => {
                let kept = bytes[..keep.min(bytes.len())].to_vec();
                st.files.insert(
                    path.to_path_buf(),
                    FileState {
                        content: kept.clone(),
                        durable: Some(kept),
                    },
                );
                Err(Self::injected(op))
            }
            None => {
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.content = bytes.to_vec();
                Ok(())
            }
        }
    }

    fn append(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.lock();
        let op = st.ops;
        match Self::step(&mut st) {
            Some(FaultMode::Error) => Err(Self::injected(op)),
            Some(FaultMode::Tear { keep }) => {
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.content.extend_from_slice(&bytes[..keep.min(bytes.len())]);
                file.durable = Some(file.content.clone());
                Err(Self::injected(op))
            }
            None => {
                let file = st.files.entry(path.to_path_buf()).or_default();
                file.content.extend_from_slice(bytes);
                Ok(())
            }
        }
    }

    fn sync(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let op = st.ops;
        if Self::step(&mut st).is_some() {
            return Err(Self::injected(op));
        }
        match st.files.get_mut(path) {
            Some(file) => {
                file.durable = Some(file.content.clone());
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let op = st.ops;
        if Self::step(&mut st).is_some() {
            return Err(Self::injected(op));
        }
        match st.files.remove(from) {
            Some(file) => {
                // The rename is durably recorded, but the *data* keeps its
                // synced/unsynced status: renaming a never-synced file and
                // crashing loses it — exactly the bug an atomic-save
                // protocol that skips fsync would have.
                st.files.insert(to.to_path_buf(), file);
                Ok(())
            }
            None => Err(io::Error::new(io::ErrorKind::NotFound, "no such file")),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        let mut st = self.lock();
        let op = st.ops;
        if Self::step(&mut st).is_some() {
            return Err(Self::injected(op));
        }
        st.files.remove(path);
        Ok(())
    }

    fn exists(&self, path: &Path) -> bool {
        self.lock().files.contains_key(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> PathBuf {
        PathBuf::from(s)
    }

    #[test]
    fn unsynced_writes_vanish_on_crash() {
        let fs = FaultVfs::new();
        fs.write(&p("a"), b"hello").unwrap();
        assert_eq!(fs.read(&p("a")).unwrap(), b"hello");
        fs.crash();
        assert!(!fs.exists(&p("a")));
    }

    #[test]
    fn synced_writes_survive_crash() {
        let fs = FaultVfs::new();
        fs.write(&p("a"), b"hello").unwrap();
        fs.sync(&p("a")).unwrap();
        fs.append(&p("a"), b" world").unwrap();
        fs.crash();
        assert_eq!(fs.read(&p("a")).unwrap(), b"hello");
    }

    #[test]
    fn rename_of_unsynced_file_is_lost_on_crash() {
        let fs = FaultVfs::new();
        fs.write(&p("tmp"), b"data").unwrap();
        fs.rename(&p("tmp"), &p("final")).unwrap();
        fs.crash();
        assert!(!fs.exists(&p("final")));
        assert!(!fs.exists(&p("tmp")));
    }

    #[test]
    fn rename_of_synced_file_survives_crash() {
        let fs = FaultVfs::new();
        fs.write(&p("tmp"), b"data").unwrap();
        fs.sync(&p("tmp")).unwrap();
        fs.rename(&p("tmp"), &p("final")).unwrap();
        fs.crash();
        assert_eq!(fs.read(&p("final")).unwrap(), b"data");
        assert!(!fs.exists(&p("tmp")));
    }

    #[test]
    fn fault_fires_once_at_exact_op() {
        let fs = FaultVfs::new();
        fs.write(&p("a"), b"1").unwrap(); // op 0
        fs.fail_op(1, FaultMode::Error);
        assert!(fs.write(&p("a"), b"2").is_err()); // op 1 fails
        assert_eq!(fs.read(&p("a")).unwrap(), b"1", "failed op had no effect");
        fs.write(&p("a"), b"3").unwrap(); // op 2 fine again
        assert_eq!(fs.op_count(), 3);
    }

    #[test]
    fn torn_append_keeps_prefix_durably() {
        let fs = FaultVfs::new();
        fs.append(&p("log"), b"aaaa").unwrap();
        fs.sync(&p("log")).unwrap();
        fs.fail_op(2, FaultMode::Tear { keep: 2 });
        assert!(fs.append(&p("log"), b"bbbb").is_err());
        fs.crash();
        assert_eq!(fs.read(&p("log")).unwrap(), b"aaaabb");
    }

    #[test]
    fn sticky_fault_persists_until_heal() {
        let fs = FaultVfs::new();
        fs.write(&p("a"), b"1").unwrap(); // op 0
        fs.fail_from(1, FaultMode::Error);
        assert!(fs.write(&p("a"), b"2").is_err()); // op 1
        assert!(fs.sync(&p("a")).is_err()); // op 2 — still failing
        fs.heal();
        fs.write(&p("a"), b"3").unwrap(); // op 3 fine again
        fs.sync(&p("a")).unwrap(); // op 4 too
        assert_eq!(fs.read(&p("a")).unwrap(), b"3");
    }

    #[test]
    fn one_shot_takes_precedence_inside_sticky_range() {
        let fs = FaultVfs::new();
        fs.fail_from(0, FaultMode::Error);
        fs.fail_op(0, FaultMode::Tear { keep: 1 });
        // The one-shot tear fires (and keeps a byte); the sticky range
        // then covers the next op.
        assert!(fs.append(&p("log"), b"xy").is_err());
        fs.heal();
        fs.crash();
        assert_eq!(fs.read(&p("log")).unwrap(), b"x");
    }

    #[test]
    fn schedules_are_deterministic_per_seed() {
        for seed in 0..32u64 {
            let a = FaultSchedule::seeded(seed, 100);
            let b = FaultSchedule::seeded(seed, 100);
            assert_eq!(a, b, "seed {seed} must reproduce its schedule");
            assert!(!a.events.is_empty());
        }
        assert_ne!(
            FaultSchedule::seeded(1, 100),
            FaultSchedule::seeded(2, 100),
            "distinct seeds should (here) give distinct schedules"
        );
    }

    #[test]
    fn armed_schedule_fires() {
        let fs = FaultVfs::new();
        FaultSchedule {
            events: vec![ScheduledFault::Once {
                op: 0,
                mode: FaultMode::Error,
            }],
        }
        .arm(&fs);
        assert!(fs.write(&p("a"), b"x").is_err());
        fs.write(&p("a"), b"x").unwrap();
    }

    #[test]
    fn remove_missing_is_error_free_on_std_only() {
        // FaultVfs::remove also tolerates missing files.
        let fs = FaultVfs::new();
        fs.remove(&p("nope")).unwrap();
    }

    #[test]
    fn std_vfs_round_trip() {
        let dir = std::env::temp_dir().join("toss-vfs-test");
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("f.bin");
        let fs = StdVfs;
        fs.write(&file, b"abc").unwrap();
        fs.append(&file, b"def").unwrap();
        fs.sync(&file).unwrap();
        assert_eq!(fs.read(&file).unwrap(), b"abcdef");
        let dst = dir.join("g.bin");
        fs.rename(&file, &dst).unwrap();
        assert!(fs.exists(&dst) && !fs.exists(&file));
        fs.remove(&dst).unwrap();
        fs.remove(&dst).unwrap(); // second remove is a no-op
    }
}
