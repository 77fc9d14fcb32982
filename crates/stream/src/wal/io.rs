//! Storage abstraction for the WAL, with a real-filesystem backend, an
//! in-memory backend modeling fsync durability, and a fault-injecting
//! wrapper for the crash-recovery harness.
//!
//! The durability model every backend must honor: bytes `append`ed to a
//! [`WalFile`] may be lost on a crash until `sync` returns; a file that
//! was never synced may vanish entirely; [`WalIo::atomic_write`] is
//! all-or-nothing and durable once it returns (write-temp + rename +
//! fsync on the real filesystem). Recovery code relies on exactly this
//! contract and nothing stronger.

use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use std::collections::{BTreeMap, BTreeSet};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Joins a directory and a file name with `/` (paths are plain strings
/// so in-memory backends need no `PathBuf` round trips).
pub fn join(dir: &str, name: &str) -> String {
    if dir.is_empty() {
        name.to_string()
    } else {
        format!("{}/{}", dir.trim_end_matches('/'), name)
    }
}

/// An append-only log file.
pub trait WalFile: Send {
    /// Appends bytes at the end; buffered until [`sync`](Self::sync).
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Makes everything appended so far durable.
    fn sync(&mut self) -> io::Result<()>;
    /// Current (volatile) length in bytes.
    fn len(&self) -> u64;
    /// Whether nothing has been appended yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The file operations the WAL needs, small enough to fake.
pub trait WalIo: Send + Sync {
    fn create_dir_all(&self, dir: &str) -> io::Result<()>;
    /// File names (not paths) directly under `dir`, sorted.
    fn list(&self, dir: &str) -> io::Result<Vec<String>>;
    fn read(&self, path: &str) -> io::Result<Vec<u8>>;
    fn open_append(&self, path: &str) -> io::Result<Box<dyn WalFile>>;
    /// Writes the whole file all-or-nothing; durable once it returns.
    fn atomic_write(&self, path: &str, bytes: &[u8]) -> io::Result<()>;
    /// Truncates to `len` bytes, durably.
    fn truncate(&self, path: &str, len: u64) -> io::Result<()>;
    fn remove(&self, path: &str) -> io::Result<()>;
}

// ---------------------------------------------------------------------
// Real filesystem
// ---------------------------------------------------------------------

/// [`WalIo`] over the real filesystem with `fsync`-backed durability.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdIo;

struct StdFile {
    file: std::fs::File,
    len: u64,
}

impl WalFile for StdFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        self.file.write_all(bytes)?;
        self.len += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// Best-effort fsync of the directory holding `path`, so renames and
/// removals inside it survive a crash (POSIX requires syncing the
/// parent directory for that; some platforms don't support it — ignore
/// failures there).
fn sync_parent_dir(path: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

impl WalIo for StdIo {
    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }

    fn open_append(&self, path: &str) -> io::Result<Box<dyn WalFile>> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let len = file.metadata()?.len();
        Ok(Box::new(StdFile { file, len }))
    }

    fn atomic_write(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        use std::io::Write;
        let tmp = format!("{path}.tmp");
        {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            f.sync_data()?;
        }
        std::fs::rename(&tmp, path)?;
        sync_parent_dir(path);
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(path)?;
        f.set_len(len)?;
        f.sync_data()
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        std::fs::remove_file(path)?;
        sync_parent_dir(path);
        Ok(())
    }
}

// ---------------------------------------------------------------------
// In-memory filesystem with an explicit durability frontier
// ---------------------------------------------------------------------

struct MemFileState {
    bytes: Vec<u8>,
    /// Prefix guaranteed to survive [`MemIo::crash`].
    synced_len: usize,
    /// A file never synced (and never atomically written) vanishes
    /// entirely at a crash, like a dirent that never hit the journal.
    ever_synced: bool,
}

#[derive(Default)]
struct MemState {
    files: BTreeMap<String, MemFileState>,
    dirs: BTreeSet<String>,
}

/// An in-memory [`WalIo`] that models the crash semantics of a real
/// filesystem: live reads see every appended byte, but
/// [`crash`](MemIo::crash) discards everything past each file's last `sync`
/// and drops never-synced files. The crash-recovery suite runs the
/// whole engine against this backend, "kills" it by calling `crash`,
/// and recovers from what survived.
#[derive(Default)]
pub struct MemIo {
    state: Arc<Mutex<MemState>>,
}

impl MemIo {
    pub fn new() -> Arc<MemIo> {
        Arc::new(MemIo::default())
    }

    /// Simulates `kill -9` + power loss: every file reverts to its
    /// durable prefix, never-synced files disappear.
    pub fn crash(&self) {
        let mut st = self.state.lock();
        st.files.retain(|_, f| f.ever_synced);
        for f in st.files.values_mut() {
            f.bytes.truncate(f.synced_len);
        }
    }

    /// The durable prefix of `path`, as a post-crash read would see it.
    pub fn durable(&self, path: &str) -> Option<Vec<u8>> {
        let st = self.state.lock();
        let f = st.files.get(path)?;
        if !f.ever_synced {
            return None;
        }
        Some(f.bytes[..f.synced_len].to_vec())
    }

    /// Total volatile bytes across files (test instrumentation).
    pub fn total_bytes(&self) -> u64 {
        let st = self.state.lock();
        st.files.values().map(|f| f.bytes.len() as u64).sum()
    }
}

struct MemFile {
    state: Arc<Mutex<MemState>>,
    path: String,
}

impl WalFile for MemFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        let f = st
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed"))?;
        f.bytes.extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut st = self.state.lock();
        let f = st
            .files
            .get_mut(&self.path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, "file removed"))?;
        f.synced_len = f.bytes.len();
        f.ever_synced = true;
        Ok(())
    }

    fn len(&self) -> u64 {
        let st = self.state.lock();
        st.files.get(&self.path).map_or(0, |f| f.bytes.len() as u64)
    }
}

impl WalIo for MemIo {
    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        self.state.lock().dirs.insert(dir.to_string());
        Ok(())
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        let st = self.state.lock();
        let prefix = format!("{}/", dir.trim_end_matches('/'));
        let mut names: Vec<String> = st
            .files
            .keys()
            .filter_map(|p| p.strip_prefix(&prefix))
            .filter(|rest| !rest.contains('/'))
            .map(String::from)
            .collect();
        names.sort();
        Ok(names)
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        let st = self.state.lock();
        st.files
            .get(path)
            .map(|f| f.bytes.clone())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))
    }

    fn open_append(&self, path: &str) -> io::Result<Box<dyn WalFile>> {
        let mut st = self.state.lock();
        st.files.entry(path.to_string()).or_insert(MemFileState {
            bytes: Vec::new(),
            synced_len: 0,
            ever_synced: false,
        });
        Ok(Box::new(MemFile {
            state: Arc::clone(&self.state),
            path: path.to_string(),
        }))
    }

    fn atomic_write(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let mut st = self.state.lock();
        st.files.insert(
            path.to_string(),
            MemFileState {
                bytes: bytes.to_vec(),
                synced_len: bytes.len(),
                ever_synced: true,
            },
        );
        Ok(())
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let mut st = self.state.lock();
        let f = st
            .files
            .get_mut(path)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))?;
        f.bytes.truncate(len as usize);
        // Truncation is an fsynced metadata operation here.
        f.synced_len = f.synced_len.min(f.bytes.len());
        Ok(())
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let mut st = self.state.lock();
        st.files
            .remove(path)
            .map(|_| ())
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, path.to_string()))
    }
}

// ---------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------

/// What to do to the write that trips a [`Failpoint`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The write is silently lost (e.g. dropped by a dying kernel).
    DropWrite,
    /// Only the first `n` bytes of the write land (torn write).
    TruncateWrite(usize),
    /// One bit of the written bytes is flipped (corruption in flight
    /// or at rest). The `usize` picks which byte/bit.
    BitFlip(usize),
    /// Power loss: the backing [`MemIo`] crashes to its durable state
    /// and every later operation through this shim is a silent no-op,
    /// as if the process kept running with its disk yanked.
    CrashHard,
}

/// Arms a [`Fault`] on the `at_op`-th write operation (0-based, counted
/// globally across all files, `atomic_write` included).
#[derive(Clone, Copy, Debug)]
pub struct Failpoint {
    pub at_op: u64,
    pub fault: Fault,
}

struct FailCtl {
    mem: Arc<MemIo>,
    ops: AtomicU64,
    points: Mutex<Vec<Failpoint>>,
    /// Whether the disk is gone. Every write op holds the read side
    /// for its whole duration, so a crash fired by one writer thread
    /// lands between another thread's ops, never between its check and
    /// its write (where it would delete the file being appended to).
    crashed: RwLock<bool>,
}

impl FailCtl {
    /// Consumes and returns the fault armed for the next write op.
    fn next_op_fault(&self) -> Option<Fault> {
        let idx = self.ops.fetch_add(1, Ordering::Relaxed);
        let mut pts = self.points.lock();
        let hit = pts.iter().position(|p| p.at_op == idx)?;
        Some(pts.swap_remove(hit).fault)
    }

    /// A guard to hold across one write op, or `None` once crashed
    /// (the op then silently does nothing).
    fn live(&self) -> Option<RwLockReadGuard<'_, bool>> {
        let crashed = self.crashed.read();
        (!*crashed).then_some(crashed)
    }

    fn crash(&self) {
        let mut crashed = self.crashed.write();
        *crashed = true;
        self.mem.crash();
    }
}

/// A [`WalIo`] shim over [`MemIo`] that injects scripted faults into
/// write operations — the fault-injection harness of the crash-recovery
/// suite. Every `append`/`atomic_write` bumps one global op counter;
/// a [`Failpoint`] whose `at_op` matches applies its [`Fault`] to that
/// specific write.
pub struct FailpointIo {
    mem: Arc<MemIo>,
    ctl: Arc<FailCtl>,
}

impl FailpointIo {
    pub fn new(mem: Arc<MemIo>) -> Self {
        let ctl = Arc::new(FailCtl {
            mem: Arc::clone(&mem),
            ops: AtomicU64::new(0),
            points: Mutex::new(Vec::new()),
            crashed: RwLock::new(false),
        });
        FailpointIo { mem, ctl }
    }

    /// Arms a failpoint. May be called while the engine is running.
    pub fn fail_at(&self, point: Failpoint) {
        self.ctl.points.lock().push(point);
    }

    /// Whether a [`Fault::CrashHard`] has fired (or
    /// [`crash`](Self::crash) was called).
    pub fn crashed(&self) -> bool {
        *self.ctl.crashed.read()
    }

    /// Write operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ctl.ops.load(Ordering::Relaxed)
    }

    /// Manually pulls the plug (equivalent to an armed
    /// [`Fault::CrashHard`] firing now).
    pub fn crash(&self) {
        self.ctl.crash();
    }
}

fn corrupt(bytes: &[u8], fault: Fault) -> Option<Vec<u8>> {
    match fault {
        Fault::DropWrite => None,
        Fault::TruncateWrite(n) => Some(bytes[..n.min(bytes.len())].to_vec()),
        Fault::BitFlip(i) => {
            let mut out = bytes.to_vec();
            if !out.is_empty() {
                let byte = i % out.len();
                out[byte] ^= 1 << (i % 8);
            }
            Some(out)
        }
        Fault::CrashHard => unreachable!("CrashHard handled by callers"),
    }
}

struct FailpointFile {
    inner: Box<dyn WalFile>,
    ctl: Arc<FailCtl>,
}

impl WalFile for FailpointFile {
    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let Some(live) = self.ctl.live() else {
            return Ok(()); // disk is gone; writes vanish silently
        };
        match self.ctl.next_op_fault() {
            None => self.inner.append(bytes),
            Some(Fault::CrashHard) => {
                drop(live);
                self.ctl.crash();
                Ok(())
            }
            Some(f) => match corrupt(bytes, f) {
                Some(mangled) => self.inner.append(&mangled),
                None => Ok(()),
            },
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        let Some(_live) = self.ctl.live() else {
            return Ok(());
        };
        self.inner.sync()
    }

    fn len(&self) -> u64 {
        self.inner.len()
    }
}

impl WalIo for FailpointIo {
    fn create_dir_all(&self, dir: &str) -> io::Result<()> {
        let Some(_live) = self.ctl.live() else {
            return Ok(());
        };
        self.mem.create_dir_all(dir)
    }

    fn list(&self, dir: &str) -> io::Result<Vec<String>> {
        self.mem.list(dir)
    }

    fn read(&self, path: &str) -> io::Result<Vec<u8>> {
        self.mem.read(path)
    }

    fn open_append(&self, path: &str) -> io::Result<Box<dyn WalFile>> {
        let inner = self.mem.open_append(path)?;
        Ok(Box::new(FailpointFile {
            inner,
            ctl: Arc::clone(&self.ctl),
        }))
    }

    fn atomic_write(&self, path: &str, bytes: &[u8]) -> io::Result<()> {
        let Some(live) = self.ctl.live() else {
            return Ok(());
        };
        match self.ctl.next_op_fault() {
            None => self.mem.atomic_write(path, bytes),
            Some(Fault::CrashHard) => {
                drop(live);
                self.ctl.crash();
                Ok(())
            }
            // Rename is atomic: a torn atomic write cannot exist. A torn
            // fault therefore degrades to "the new file never appeared";
            // a bit flip models corruption at rest, which readers must
            // catch by checksum.
            Some(Fault::DropWrite) | Some(Fault::TruncateWrite(_)) => Ok(()),
            Some(f @ Fault::BitFlip(_)) => match corrupt(bytes, f) {
                Some(mangled) => self.mem.atomic_write(path, &mangled),
                None => Ok(()),
            },
        }
    }

    fn truncate(&self, path: &str, len: u64) -> io::Result<()> {
        let Some(_live) = self.ctl.live() else {
            return Ok(());
        };
        self.mem.truncate(path, len)
    }

    fn remove(&self, path: &str) -> io::Result<()> {
        let Some(_live) = self.ctl.live() else {
            return Ok(());
        };
        self.mem.remove(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_io_crash_keeps_synced_prefix_only() {
        let mem = MemIo::new();
        let mut f = mem.open_append("d/a").unwrap();
        f.append(b"hello").unwrap();
        f.sync().unwrap();
        f.append(b" world").unwrap();
        assert_eq!(mem.read("d/a").unwrap(), b"hello world");

        mem.crash();
        assert_eq!(mem.read("d/a").unwrap(), b"hello");
    }

    #[test]
    fn mem_io_crash_drops_never_synced_files() {
        let mem = MemIo::new();
        let mut f = mem.open_append("d/a").unwrap();
        f.append(b"volatile").unwrap();
        mem.crash();
        assert!(mem.read("d/a").is_err());
    }

    #[test]
    fn mem_io_atomic_write_is_durable() {
        let mem = MemIo::new();
        mem.atomic_write("d/ck", b"snapshot").unwrap();
        mem.crash();
        assert_eq!(mem.read("d/ck").unwrap(), b"snapshot");
    }

    #[test]
    fn mem_io_lists_only_direct_children() {
        let mem = MemIo::new();
        mem.atomic_write("d/a", b"1").unwrap();
        mem.atomic_write("d/sub/b", b"2").unwrap();
        mem.atomic_write("e/c", b"3").unwrap();
        assert_eq!(mem.list("d").unwrap(), vec!["a".to_string()]);
    }

    #[test]
    fn failpoints_mangle_the_targeted_op() {
        let mem = MemIo::new();
        let fio = FailpointIo::new(Arc::clone(&mem));
        fio.fail_at(Failpoint {
            at_op: 1,
            fault: Fault::DropWrite,
        });
        fio.fail_at(Failpoint {
            at_op: 2,
            fault: Fault::TruncateWrite(2),
        });
        let mut f = fio.open_append("d/a").unwrap();
        f.append(b"AAAA").unwrap(); // op 0: lands
        f.append(b"BBBB").unwrap(); // op 1: dropped
        f.append(b"CCCC").unwrap(); // op 2: torn to 2 bytes
        f.append(b"DDDD").unwrap(); // op 3: lands
        assert_eq!(mem.read("d/a").unwrap(), b"AAAACCDDDD");
    }

    #[test]
    fn crash_hard_freezes_the_disk() {
        let mem = MemIo::new();
        let fio = FailpointIo::new(Arc::clone(&mem));
        fio.fail_at(Failpoint {
            at_op: 1,
            fault: Fault::CrashHard,
        });
        let mut f = fio.open_append("d/a").unwrap();
        f.append(b"one").unwrap();
        f.sync().unwrap();
        f.append(b"two").unwrap(); // trips CrashHard
        assert!(fio.crashed());
        f.append(b"three").unwrap(); // silently lost
        f.sync().unwrap(); // no-op
        fio.atomic_write("d/ck", b"late").unwrap(); // no-op
        assert_eq!(mem.read("d/a").unwrap(), b"one");
        assert!(mem.read("d/ck").is_err());
    }

    #[test]
    fn bit_flip_flips_exactly_one_bit() {
        let mem = MemIo::new();
        let fio = FailpointIo::new(Arc::clone(&mem));
        fio.fail_at(Failpoint {
            at_op: 0,
            fault: Fault::BitFlip(5),
        });
        let mut f = fio.open_append("d/a").unwrap();
        f.append(&[0u8; 4]).unwrap();
        let got = mem.read("d/a").unwrap();
        let ones: u32 = got.iter().map(|b| b.count_ones()).sum();
        assert_eq!(ones, 1);
    }
}
