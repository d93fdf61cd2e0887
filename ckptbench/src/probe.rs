//! Outside-in probes for the traced run: a [`Vfs`] decorator and a
//! [`Transport`] decorator that time and count every call they forward.
//!
//! Both keep their counters behind an `Rc<RefCell<_>>` the workload
//! holds too, so it can snapshot them around a single layer call and
//! attribute the difference to that call. The untraced run never builds
//! either decorator: it drives the bare `MemFs`/`StdFs`/`ChannelTransport`.

use ickp_durable::{FsError, MemFs, StdFs, Vfs, MANIFEST};
use ickp_replicate::{Transport, TransportError};
use std::cell::RefCell;
use std::ops::{Add, Sub};
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Calls, bytes and time of one kind of operation.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpStat {
    /// Calls forwarded.
    pub calls: u64,
    /// Payload bytes (writes and sends; zero for the rest).
    pub bytes: u64,
    /// Time spent inside the wrapped implementation.
    pub time: Duration,
}

impl OpStat {
    fn note(&mut self, bytes: usize, time: Duration) {
        self.calls += 1;
        self.bytes += bytes as u64;
        self.time += time;
    }
}

impl Sub for OpStat {
    type Output = OpStat;
    fn sub(self, rhs: OpStat) -> OpStat {
        OpStat {
            calls: self.calls - rhs.calls,
            bytes: self.bytes - rhs.bytes,
            time: self.time - rhs.time,
        }
    }
}

impl Add for OpStat {
    type Output = OpStat;
    fn add(self, rhs: OpStat) -> OpStat {
        OpStat {
            calls: self.calls + rhs.calls,
            bytes: self.bytes + rhs.bytes,
            time: self.time + rhs.time,
        }
    }
}

/// Per-op-kind accounting of one node's filesystem.
#[derive(Debug, Clone, Copy, Default)]
pub struct VfsStats {
    /// `write_file`/`append` on segment files.
    pub segment_write: OpStat,
    /// `sync` on segment files.
    pub segment_sync: OpStat,
    /// `write_file` of the manifest temp file.
    pub manifest_write: OpStat,
    /// `sync` of the manifest temp file.
    pub manifest_sync: OpStat,
    /// `rename` (every one publishes a manifest).
    pub rename: OpStat,
    /// `sync_dir`.
    pub sync_dir: OpStat,
    /// `read`, `list`, `exists`, `truncate`, `remove`.
    pub other: OpStat,
}

impl VfsStats {
    /// Time inside the filesystem, all op kinds.
    pub fn total(&self) -> Duration {
        self.segment_write.time
            + self.fsync().time
            + self.manifest_write.time
            + self.rename.time
            + self.other.time
    }

    /// Every fsync-class call: file syncs of segments and the manifest,
    /// plus directory syncs.
    pub fn fsync(&self) -> OpStat {
        let (a, b, c) = (self.segment_sync, self.manifest_sync, self.sync_dir);
        OpStat { calls: a.calls + b.calls + c.calls, bytes: 0, time: a.time + b.time + c.time }
    }

    /// The manifest swap: temp write + its fsync + rename + dir fsync.
    pub fn manifest_time(&self) -> Duration {
        self.manifest_write.time + self.manifest_sync.time + self.rename.time + self.sync_dir.time
    }

    /// Bytes written, segments and manifest.
    pub fn bytes_written(&self) -> u64 {
        self.segment_write.bytes + self.manifest_write.bytes
    }
}

impl VfsStats {
    fn zip(self, rhs: VfsStats, f: fn(OpStat, OpStat) -> OpStat) -> VfsStats {
        VfsStats {
            segment_write: f(self.segment_write, rhs.segment_write),
            segment_sync: f(self.segment_sync, rhs.segment_sync),
            manifest_write: f(self.manifest_write, rhs.manifest_write),
            manifest_sync: f(self.manifest_sync, rhs.manifest_sync),
            rename: f(self.rename, rhs.rename),
            sync_dir: f(self.sync_dir, rhs.sync_dir),
            other: f(self.other, rhs.other),
        }
    }
}

impl Sub for VfsStats {
    type Output = VfsStats;
    fn sub(self, rhs: VfsStats) -> VfsStats {
        self.zip(rhs, OpStat::sub)
    }
}

impl Add for VfsStats {
    type Output = VfsStats;
    fn add(self, rhs: VfsStats) -> VfsStats {
        self.zip(rhs, OpStat::add)
    }
}

/// A shared counter handle.
pub type Shared<T> = Rc<RefCell<T>>;

/// Reads a shared counter.
pub fn snapshot<T: Copy>(shared: &Shared<T>) -> T {
    *shared.borrow()
}

fn is_manifest(name: &str) -> bool {
    name.starts_with(MANIFEST)
}

/// Times and counts every call into the wrapped filesystem.
#[derive(Debug)]
pub struct TimedVfs<F> {
    inner: F,
    stats: Shared<VfsStats>,
}

impl<F> TimedVfs<F> {
    /// Wraps `inner`, accounting into `stats`.
    pub fn new(inner: F, stats: Shared<VfsStats>) -> TimedVfs<F> {
        TimedVfs { inner, stats }
    }

    fn note(&self, slot: fn(&mut VfsStats) -> &mut OpStat, bytes: usize, start: Instant) {
        let elapsed = start.elapsed();
        slot(&mut self.stats.borrow_mut()).note(bytes, elapsed);
    }
}

fn write_slot(name: &str) -> fn(&mut VfsStats) -> &mut OpStat {
    if is_manifest(name) {
        |s| &mut s.manifest_write
    } else {
        |s| &mut s.segment_write
    }
}

fn sync_slot(name: &str) -> fn(&mut VfsStats) -> &mut OpStat {
    if is_manifest(name) {
        |s| &mut s.manifest_sync
    } else {
        |s| &mut s.segment_sync
    }
}

fn other(s: &mut VfsStats) -> &mut OpStat {
    &mut s.other
}

impl<F: Vfs> Vfs for TimedVfs<F> {
    fn write_file(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.write_file(name, data);
        self.note(write_slot(name), data.len(), start);
        out
    }

    fn append(&mut self, name: &str, data: &[u8]) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.append(name, data);
        self.note(write_slot(name), data.len(), start);
        out
    }

    fn sync(&mut self, name: &str) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.sync(name);
        self.note(sync_slot(name), 0, start);
        out
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.rename(from, to);
        self.note(|s| &mut s.rename, 0, start);
        out
    }

    fn sync_dir(&mut self) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.sync_dir();
        self.note(|s| &mut s.sync_dir, 0, start);
        out
    }

    fn truncate(&mut self, name: &str, len: u64) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.truncate(name, len);
        self.note(other, 0, start);
        out
    }

    fn remove(&mut self, name: &str) -> Result<(), FsError> {
        let start = Instant::now();
        let out = self.inner.remove(name);
        self.note(other, 0, start);
        out
    }

    fn read(&self, name: &str) -> Result<Vec<u8>, FsError> {
        let start = Instant::now();
        let out = self.inner.read(name);
        self.note(other, 0, start);
        out
    }

    fn exists(&self, name: &str) -> bool {
        let start = Instant::now();
        let out = self.inner.exists(name);
        self.note(other, 0, start);
        out
    }

    fn list(&self) -> Result<Vec<String>, FsError> {
        let start = Instant::now();
        let out = self.inner.list();
        self.note(other, 0, start);
        out
    }
}

/// What a crash does to a filesystem handle: `MemFs` drops everything
/// not yet fsynced; for a real directory the process dies and the
/// handle is dropped, which leaves the files as the kernel holds them.
pub trait Crash: Sized {
    /// Applies the crash in place.
    fn crash(&mut self);

    /// An independent copy of the disk, where one is cheap to make
    /// (in memory), so that recovery can be timed more than once.
    fn image(&self) -> Option<Self>;
}

impl Crash for MemFs {
    fn crash(&mut self) {
        MemFs::crash(self);
    }

    fn image(&self) -> Option<MemFs> {
        Some(self.clone())
    }
}

impl Crash for StdFs {
    fn crash(&mut self) {}

    fn image(&self) -> Option<StdFs> {
        None
    }
}

impl<F: Crash> Crash for TimedVfs<F> {
    fn crash(&mut self) {
        self.inner.crash();
    }

    fn image(&self) -> Option<TimedVfs<F>> {
        let inner = self.inner.image()?;
        Some(TimedVfs { inner, stats: self.stats.clone() })
    }
}

/// Frames, bytes and time through one transport.
#[derive(Debug, Clone, Copy, Default)]
pub struct WireStats {
    /// Sends, both directions.
    pub sent: OpStat,
    /// Polls that returned a frame, both directions (`bytes` = frame bytes).
    pub received: OpStat,
}

impl WireStats {
    /// Time inside the transport.
    pub fn total(&self) -> Duration {
        self.sent.time + self.received.time
    }
}

impl Sub for WireStats {
    type Output = WireStats;
    fn sub(self, rhs: WireStats) -> WireStats {
        WireStats { sent: self.sent - rhs.sent, received: self.received - rhs.received }
    }
}

impl Add for WireStats {
    type Output = WireStats;
    fn add(self, rhs: WireStats) -> WireStats {
        WireStats { sent: self.sent + rhs.sent, received: self.received + rhs.received }
    }
}

/// Times and counts every frame through the wrapped transport.
#[derive(Debug)]
pub struct TimedTransport<T> {
    inner: T,
    stats: Shared<WireStats>,
}

impl<T> TimedTransport<T> {
    /// Wraps `inner`, accounting into `stats`.
    pub fn new(inner: T, stats: Shared<WireStats>) -> TimedTransport<T> {
        TimedTransport { inner, stats }
    }
}

impl<T: Transport> TimedTransport<T> {
    fn send(&mut self, frame: Vec<u8>, to_follower: bool) -> Result<(), TransportError> {
        let len = frame.len();
        let start = Instant::now();
        let out = if to_follower {
            self.inner.send_to_follower(frame)
        } else {
            self.inner.send_to_primary(frame)
        };
        self.stats.borrow_mut().sent.note(len, start.elapsed());
        out
    }

    fn recv(&mut self, at_follower: bool) -> Option<Vec<u8>> {
        let start = Instant::now();
        let out =
            if at_follower { self.inner.recv_at_follower() } else { self.inner.recv_at_primary() };
        if let Some(frame) = &out {
            self.stats.borrow_mut().received.note(frame.len(), start.elapsed());
        } else {
            self.stats.borrow_mut().received.time += start.elapsed();
        }
        out
    }
}

impl<T: Transport> Transport for TimedTransport<T> {
    fn send_to_follower(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.send(frame, true)
    }

    fn recv_at_follower(&mut self) -> Option<Vec<u8>> {
        self.recv(true)
    }

    fn send_to_primary(&mut self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.send(frame, false)
    }

    fn recv_at_primary(&mut self) -> Option<Vec<u8>> {
        self.recv(false)
    }
}
