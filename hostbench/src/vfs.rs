//! A timing, counting [`Vfs`] around [`RealFs`], passed to the executor
//! through `RunOptions::vfs`.
//!
//! It can also elide the sync calls (still counting them). `dse-cold`
//! measures that way: its sweep makes 8,442 fsyncs, and on a shared
//! virtual disk their latency swings a sweep from 2.5 s to 14 s between
//! minutes, which no number of sweeps per run averages out.

use sparten_bench::vfs::{Append, RealFs, Vfs, VfsDirEntry, VfsFile};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Instant, SystemTime};

/// Totals over every call made through one [`CountingFs`].
#[derive(Debug, Default)]
pub struct FsCounters {
    /// Calls of any kind, directory and file handle alike.
    pub ops: AtomicU64,
    /// `sync_data`, `sync_all` and `sync_dir` calls.
    pub fsyncs: AtomicU64,
    /// Bytes handed to `write_all`.
    pub bytes_written: AtomicU64,
    /// Host time spent inside the calls, in nanoseconds.
    pub busy_ns: AtomicU64,
}

impl FsCounters {
    fn time<T>(&self, sync: bool, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        // Relaxed: statistics only, read after the run has joined.
        self.busy_ns.fetch_add(ns, Ordering::Relaxed);
        self.ops.fetch_add(1, Ordering::Relaxed);
        if sync {
            self.fsyncs.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Reads one counter.
    pub fn get(counter: &AtomicU64) -> u64 {
        counter.load(Ordering::Relaxed)
    }
}

/// [`RealFs`] with every call counted and timed.
#[derive(Debug)]
pub struct CountingFs {
    /// Shared with every file handle this filesystem opens.
    pub counters: Arc<FsCounters>,
    /// Whether sync calls reach the disk (otherwise they are counted and
    /// return `Ok`).
    durable: bool,
}

struct CountingFile {
    inner: Box<dyn VfsFile>,
    counters: Arc<FsCounters>,
    durable: bool,
}

impl CountingFile {
    fn sync(&mut self, f: impl FnOnce(&mut dyn VfsFile) -> io::Result<()>) -> io::Result<()> {
        let (inner, durable) = (&mut *self.inner, self.durable);
        self.counters
            .time(true, || if durable { f(inner) } else { Ok(()) })
    }
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.counters
            .bytes_written
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.counters.time(false, || self.inner.write_all(buf))
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.sync(|f| f.sync_data())
    }

    fn sync_all(&mut self) -> io::Result<()> {
        self.sync(|f| f.sync_all())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.counters.time(false, || self.inner.truncate(len))
    }
}

impl CountingFs {
    /// A counting filesystem; `durable: false` elides sync calls.
    pub fn new(durable: bool) -> CountingFs {
        CountingFs {
            counters: Arc::default(),
            durable,
        }
    }

    fn wrap(&self, file: io::Result<Box<dyn VfsFile>>) -> io::Result<Box<dyn VfsFile>> {
        file.map(|inner| {
            Box::new(CountingFile {
                inner,
                counters: Arc::clone(&self.counters),
                durable: self.durable,
            }) as Box<dyn VfsFile>
        })
    }
}

impl Vfs for CountingFs {
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.counters.time(false, || RealFs.create_dir_all(path))
    }

    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.counters.time(false, || RealFs.create(path)))
    }

    fn open_append(&self, path: &Path, mode: Append) -> io::Result<Box<dyn VfsFile>> {
        self.wrap(self.counters.time(false, || RealFs.open_append(path, mode)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.counters.time(false, || RealFs.read(path))
    }

    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.counters.time(false, || RealFs.read_to_string(path))
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.counters.time(false, || RealFs.rename(from, to))
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.counters.time(false, || RealFs.remove_file(path))
    }

    fn read_dir(&self, path: &Path) -> io::Result<Vec<VfsDirEntry>> {
        self.counters.time(false, || RealFs.read_dir(path))
    }

    fn modified(&self, path: &Path) -> io::Result<SystemTime> {
        self.counters.time(false, || RealFs.modified(path))
    }

    fn sync_dir(&self, path: &Path) -> io::Result<()> {
        let durable = self.durable;
        self.counters.time(true, || {
            if durable {
                RealFs.sync_dir(path)
            } else {
                Ok(())
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_ops_fsyncs_and_bytes() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("work/vfs-test-{}", std::process::id()));
        let fs = CountingFs::new(true);
        fs.create_dir_all(&dir).expect("mkdir");
        let path = dir.join("f");
        let mut f = fs.create(&path).expect("create");
        f.write_all(b"hello").expect("write");
        f.sync_all().expect("fsync");
        drop(f);
        fs.sync_dir(&dir).expect("sync dir");
        assert_eq!(fs.read(&path).expect("read"), b"hello");
        std::fs::remove_dir_all(&dir).expect("cleanup");
        let _ = std::fs::remove_dir(dir.parent().expect("work dir"));
        let c = &fs.counters;
        assert_eq!(FsCounters::get(&c.ops), 6);
        assert_eq!(FsCounters::get(&c.fsyncs), 2);
        assert_eq!(FsCounters::get(&c.bytes_written), 5);
        assert!(FsCounters::get(&c.busy_ns) > 0);
    }

    #[test]
    fn elided_syncs_are_counted_but_succeed() {
        let fs = CountingFs::new(false);
        // The directory does not exist: a real sync_dir would fail.
        let missing = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/no-such-dir");
        fs.sync_dir(&missing).expect("elided");
        assert_eq!(FsCounters::get(&fs.counters.fsyncs), 1);
        assert!(CountingFs::new(true).sync_dir(&missing).is_err());
    }
}
