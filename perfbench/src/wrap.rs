//! Transparent wrappers around the program's public seams: a timing
//! `StateBackendFactory`/`StateBackend` and a counting `Vfs`.
//!
//! Every trait method is forwarded, the defaulted ones included: a
//! wrapper that fell back to a default would change behaviour
//! (`wants_warm` → no LSM warm-ups, `read_view` → an empty serve
//! registry, `advance_prefetch` → no prefetch). `name()` is forwarded too,
//! because the executor re-wraps any factory not named `"tiered"`.

use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::Arc;

use flowkv_common::backend::{
    AggregateKind, KeyFilter, OperatorContext, StateBackend, StateBackendFactory, StateEntry,
    WindowChunk,
};
use flowkv_common::error::Result;
use flowkv_common::metrics::StoreMetrics;
use flowkv_common::registry::StateView;
use flowkv_common::types::{Timestamp, WindowId};
use flowkv_common::vfs::{Vfs, VfsFile};

use crate::recorder::{Layer, Method, Recorder};

/// Wraps every store a factory creates in a [`TimingBackend`].
pub struct TimingFactory {
    inner: Arc<dyn StateBackendFactory>,
    rec: Arc<Recorder>,
    layer: Layer,
}

impl TimingFactory {
    /// Times the stores of `inner` as `layer` (`Outer` or `Inner`).
    pub fn new(inner: Arc<dyn StateBackendFactory>, rec: Arc<Recorder>, layer: Layer) -> Self {
        TimingFactory { inner, rec, layer }
    }
}

impl StateBackendFactory for TimingFactory {
    fn create(&self, ctx: &OperatorContext) -> Result<Box<dyn StateBackend>> {
        Ok(Box::new(TimingBackend {
            inner: self.inner.create(ctx)?,
            rec: Arc::clone(&self.rec),
            layer: self.layer,
        }))
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}

/// A store whose every call is timed into a [`Recorder`].
pub struct TimingBackend {
    inner: Box<dyn StateBackend>,
    rec: Arc<Recorder>,
    layer: Layer,
}

impl TimingBackend {
    fn timed<T>(
        &mut self,
        method: Method,
        span: &'static str,
        f: impl FnOnce(&mut dyn StateBackend) -> T,
    ) -> T {
        let span = (!method.per_tuple()).then_some(span);
        let inner = &mut *self.inner;
        self.rec.call(self.layer, method, span, || f(inner)).0
    }
}

impl StateBackend for TimingBackend {
    fn append(&mut self, key: &[u8], window: WindowId, value: &[u8], ts: Timestamp) -> Result<()> {
        if self.layer == Layer::Outer {
            self.rec.append_bytes.fetch_add(
                (key.len() + value.len()) as u64,
                std::sync::atomic::Ordering::Relaxed,
            );
        }
        self.timed(Method::Append, "append", |b| {
            b.append(key, window, value, ts)
        })
    }

    fn get_window_chunk(&mut self, window: WindowId) -> Result<Option<WindowChunk>> {
        self.timed(Method::GetWindowChunk, "get_window_chunk", |b| {
            b.get_window_chunk(window)
        })
    }

    fn take_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.timed(Method::TakeValues, "take_values", |b| {
            b.take_values(key, window)
        })
    }

    fn peek_values(&mut self, key: &[u8], window: WindowId) -> Result<Vec<Vec<u8>>> {
        self.timed(Method::PeekValues, "peek_values", |b| {
            b.peek_values(key, window)
        })
    }

    fn take_aggregate(&mut self, key: &[u8], window: WindowId) -> Result<Option<Vec<u8>>> {
        self.timed(Method::TakeAggregate, "take_aggregate", |b| {
            b.take_aggregate(key, window)
        })
    }

    fn put_aggregate(&mut self, key: &[u8], window: WindowId, aggregate: &[u8]) -> Result<()> {
        self.timed(Method::PutAggregate, "put_aggregate", |b| {
            b.put_aggregate(key, window, aggregate)
        })
    }

    fn flush(&mut self) -> Result<()> {
        self.timed(Method::Flush, "flush", |b| b.flush())
    }

    fn read_view(&mut self) -> Result<Option<StateView>> {
        self.timed(Method::ReadView, "read_view", |b| b.read_view())
    }

    fn extract_range(
        &mut self,
        in_range: KeyFilter<'_>,
        kind: AggregateKind,
    ) -> Result<Vec<StateEntry>> {
        self.timed(Method::Other, "extract_range", |b| {
            b.extract_range(in_range, kind)
        })
    }

    fn inject_entries(&mut self, entries: Vec<StateEntry>) -> Result<()> {
        self.timed(Method::Other, "inject_entries", |b| {
            b.inject_entries(entries)
        })
    }

    fn advance_prefetch(&mut self, stream_time: Timestamp) -> Result<()> {
        self.timed(Method::AdvancePrefetch, "advance_prefetch", |b| {
            b.advance_prefetch(stream_time)
        })
    }

    fn demoted_hint(&mut self, window: WindowId) -> Result<()> {
        self.timed(Method::Other, "demoted_hint", |b| b.demoted_hint(window))
    }

    fn warm(&mut self, pairs: &[(&[u8], WindowId)]) -> Result<()> {
        self.timed(Method::Other, "warm", |b| b.warm(pairs))
    }

    fn wants_warm(&self) -> bool {
        self.inner.wants_warm()
    }

    fn metrics(&self) -> Arc<StoreMetrics> {
        self.inner.metrics()
    }

    fn memory_bytes(&self) -> usize {
        self.inner.memory_bytes()
    }

    fn checkpoint(&mut self, dir: &Path) -> Result<()> {
        self.timed(Method::Other, "checkpoint", |b| b.checkpoint(dir))
    }

    fn restore(&mut self, dir: &Path) -> Result<()> {
        self.timed(Method::Other, "restore", |b| b.restore(dir))
    }

    fn close(&mut self) -> Result<()> {
        self.timed(Method::Other, "close", |b| b.close())
    }
}

/// A `Vfs` that counts and times every operation of the one it wraps.
pub struct CountingVfs {
    inner: Arc<dyn Vfs>,
    rec: Arc<Recorder>,
}

impl CountingVfs {
    /// Counts the traffic of `inner` into `rec`.
    pub fn new(inner: Arc<dyn Vfs>, rec: Arc<Recorder>) -> Self {
        CountingVfs { inner, rec }
    }

    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        self.rec.call(Layer::Vfs, Method::Other, None, f)
    }

    fn wrap(
        &self,
        path: &Path,
        file: io::Result<Box<dyn VfsFile>>,
    ) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: file?,
            rec: Arc::clone(&self.rec),
            tier: under_tier(path),
        }))
    }
}

/// Whether `path` belongs to the cold tier (`TieredStore` keeps its cold
/// log in a `tier/` directory).
fn under_tier(path: &Path) -> bool {
    path.components().any(|c| c.as_os_str() == "tier")
}

impl Vfs for CountingVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (file, _) = self.timed(|| self.inner.create(path));
        self.wrap(path, file)
    }

    fn open_append(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (file, _) = self.timed(|| self.inner.open_append(path));
        self.wrap(path, file)
    }

    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (file, _) = self.timed(|| self.inner.open_read(path));
        self.wrap(path, file)
    }

    fn open_rw(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        let (file, _) = self.timed(|| self.inner.open_rw(path));
        self.wrap(path, file)
    }

    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.timed(|| self.inner.create_dir_all(path)).0
    }

    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.timed(|| self.inner.remove_file(path)).0
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| self.inner.rename(from, to)).0
    }

    fn copy(&self, from: &Path, to: &Path) -> io::Result<u64> {
        let (copied, nanos) = self.timed(|| self.inner.copy(from, to));
        if let Ok(bytes) = &copied {
            self.rec.vfs.read(*bytes, nanos, under_tier(from));
            self.rec.vfs.write(*bytes, under_tier(to));
        }
        copied
    }

    fn link_or_copy(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.timed(|| self.inner.link_or_copy(from, to)).0
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let (data, nanos) = self.timed(|| self.inner.read(path));
        if let Ok(data) = &data {
            self.rec
                .vfs
                .read(data.len() as u64, nanos, under_tier(path));
        }
        data
    }

    fn write(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        let (done, _) = self.timed(|| self.inner.write(path, data));
        if done.is_ok() {
            self.rec.vfs.write(data.len() as u64, under_tier(path));
        }
        done
    }

    fn exists(&self, path: &Path) -> bool {
        self.timed(|| self.inner.exists(path)).0
    }

    fn file_len(&self, path: &Path) -> io::Result<u64> {
        self.timed(|| self.inner.file_len(path)).0
    }

    fn read_dir_names(&self, path: &Path) -> io::Result<Vec<String>> {
        self.timed(|| self.inner.read_dir_names(path)).0
    }
}

/// A file handle of the [`CountingVfs`].
struct CountingFile {
    inner: Box<dyn VfsFile>,
    rec: Arc<Recorder>,
    tier: bool,
}

impl CountingFile {
    fn timed<T>(&self, f: impl FnOnce() -> T) -> (T, u64) {
        self.rec.call(Layer::Vfs, Method::Other, None, f)
    }
}

impl Read for CountingFile {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        let (n, nanos) = self
            .rec
            .call(Layer::Vfs, Method::Other, None, || inner.read(buf));
        if let Ok(n) = &n {
            self.rec.vfs.read(*n as u64, nanos, self.tier);
        }
        n
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        let len = buf.len() as u64;
        let (done, nanos) = self
            .rec
            .call(Layer::Vfs, Method::Other, None, || inner.read_exact(buf));
        if done.is_ok() {
            self.rec.vfs.read(len, nanos, self.tier);
        }
        done
    }

    fn read_to_end(&mut self, buf: &mut Vec<u8>) -> io::Result<usize> {
        let inner = &mut self.inner;
        let (n, nanos) = self
            .rec
            .call(Layer::Vfs, Method::Other, None, || inner.read_to_end(buf));
        if let Ok(n) = &n {
            self.rec.vfs.read(*n as u64, nanos, self.tier);
        }
        n
    }
}

impl Write for CountingFile {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let inner = &mut self.inner;
        let (n, _) = self
            .rec
            .call(Layer::Vfs, Method::Other, None, || inner.write(buf));
        if let Ok(n) = &n {
            self.rec.vfs.write(*n as u64, self.tier);
        }
        n
    }

    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let inner = &mut self.inner;
        let (done, _) = self
            .rec
            .call(Layer::Vfs, Method::Other, None, || inner.write_all(buf));
        if done.is_ok() {
            self.rec.vfs.write(buf.len() as u64, self.tier);
        }
        done
    }

    fn flush(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        self.rec
            .call(Layer::Vfs, Method::Other, None, || inner.flush())
            .0
    }
}

impl Seek for CountingFile {
    fn seek(&mut self, pos: SeekFrom) -> io::Result<u64> {
        let inner = &mut self.inner;
        self.rec
            .call(Layer::Vfs, Method::Other, None, || inner.seek(pos))
            .0
    }
}

impl VfsFile for CountingFile {
    fn sync_data(&mut self) -> io::Result<()> {
        let inner = &mut self.inner;
        let (done, _) = self
            .rec
            .call(Layer::Vfs, Method::Other, None, || inner.sync_data());
        self.rec
            .vfs
            .syncs
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        done
    }

    fn read_exact_at(&self, buf: &mut [u8], offset: u64) -> io::Result<()> {
        let len = buf.len() as u64;
        let (done, nanos) = self.timed(|| self.inner.read_exact_at(buf, offset));
        if done.is_ok() {
            self.rec.vfs.read(len, nanos, self.tier);
        }
        done
    }

    fn write_all_at(&self, buf: &[u8], offset: u64) -> io::Result<()> {
        let (done, _) = self.timed(|| self.inner.write_all_at(buf, offset));
        if done.is_ok() {
            self.rec.vfs.write(buf.len() as u64, self.tier);
        }
        done
    }

    fn set_len(&self, len: u64) -> io::Result<()> {
        self.timed(|| self.inner.set_len(len)).0
    }

    fn len(&self) -> io::Result<u64> {
        self.timed(|| self.inner.len()).0
    }
}
