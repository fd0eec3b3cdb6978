//! Process-level sampling from `/proc`: resident memory, bytes under the
//! data directory, and CPU time per thread grouped by thread name.
//!
//! One background thread samples every few milliseconds and keeps the
//! last CPU reading of every thread it has seen, so threads that exit
//! before the end of a job still count.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

const PERIOD: Duration = Duration::from_millis(5);
/// Thread CPU is read every this many periods.
const THREAD_EVERY: u32 = 4;

#[derive(Default)]
struct Shared {
    stop: AtomicBool,
    rss_peak: AtomicU64,
    disk_peak: AtomicU64,
    dir: Mutex<Option<PathBuf>>,
    /// tid → (thread name, CPU nanoseconds at the last sample).
    threads: Mutex<HashMap<u32, (String, u64)>>,
}

/// CPU seconds by thread group over an interval.
#[derive(Clone, Copy, Debug, Default)]
pub struct CpuByGroup {
    /// Executor workers (`spe-*` except source, sink and telemetry).
    pub worker: f64,
    /// I/O ring threads (`flowkv-ioring-*`).
    pub ring: f64,
    /// The serve event loop (`flowkv-serve-core`).
    pub serve_core: f64,
}

/// A copy of every thread's CPU reading at one instant.
#[derive(Clone, Default)]
pub struct ThreadCpu(HashMap<u32, (String, u64)>);

impl ThreadCpu {
    /// CPU spent by each group between `before` and `self`.
    pub fn since(&self, before: &ThreadCpu) -> CpuByGroup {
        let mut out = CpuByGroup::default();
        for (tid, (name, cpu)) in &self.0 {
            let start = before.0.get(tid).map_or(0, |(_, c)| *c);
            let secs = cpu.saturating_sub(start) as f64 / 1e9;
            if name.starts_with("flowkv-ioring") {
                out.ring += secs;
            } else if name.starts_with("flowkv-serve-co") {
                out.serve_core += secs;
            } else if name.starts_with("spe-")
                && !matches!(name.as_str(), "spe-source" | "spe-sink" | "spe-telemetry")
            {
                out.worker += secs;
            }
        }
        out
    }
}

/// The sampling thread and what it has seen.
pub struct Sampler {
    shared: Arc<Shared>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling; thread CPU is read only when `threads` is set.
    pub fn start(threads: bool) -> Self {
        let shared = Arc::new(Shared::default());
        let s = Arc::clone(&shared);
        let handle = std::thread::Builder::new()
            .name("perfbench-sampler".into())
            .spawn(move || {
                let mut tick = 0u32;
                while !s.stop.load(Ordering::Relaxed) {
                    sample_memory_and_disk(&s);
                    if threads && tick.is_multiple_of(THREAD_EVERY) {
                        sample_threads(&s);
                    }
                    tick = tick.wrapping_add(1);
                    std::thread::sleep(PERIOD);
                }
            })
            .expect("spawn sampler thread");
        Sampler {
            shared,
            handle: Some(handle),
        }
    }

    /// Starts watching `dir`: its peak restarts from zero bytes.
    pub fn begin(&self, dir: &Path) {
        *self.shared.dir.lock().expect("sampler dir lock poisoned") = Some(dir.to_path_buf());
        self.shared.disk_peak.store(0, Ordering::Relaxed);
    }

    /// Stops watching: takes a last sample and returns the peak bytes
    /// under the watched directory.
    pub fn end(&self) -> u64 {
        sample_memory_and_disk(&self.shared);
        *self.shared.dir.lock().expect("sampler dir lock poisoned") = None;
        self.shared.disk_peak.load(Ordering::Relaxed)
    }

    /// Restarts the resident-size peak from the current size, which it
    /// returns in bytes.
    pub fn reset_rss(&self) -> u64 {
        let rss = rss_bytes();
        self.shared.rss_peak.store(rss, Ordering::Relaxed);
        rss
    }

    /// Peak resident size in bytes since the last [`Sampler::reset_rss`].
    pub fn rss_peak(&self) -> u64 {
        sample_memory_and_disk(&self.shared);
        self.shared.rss_peak.load(Ordering::Relaxed)
    }

    /// Reads every thread's CPU now and returns all readings so far.
    pub fn thread_cpu(&self) -> ThreadCpu {
        sample_threads(&self.shared);
        ThreadCpu(
            self.shared
                .threads
                .lock()
                .expect("sampler thread map poisoned")
                .clone(),
        )
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

fn sample_memory_and_disk(s: &Shared) {
    s.rss_peak.fetch_max(rss_bytes(), Ordering::Relaxed);
    let dir = s.dir.lock().expect("sampler dir lock poisoned").clone();
    if let Some(dir) = dir {
        s.disk_peak.fetch_max(dir_bytes(&dir), Ordering::Relaxed);
    }
}

fn sample_threads(s: &Shared) {
    let Ok(entries) = std::fs::read_dir("/proc/self/task") else {
        return;
    };
    let mut map = s.threads.lock().expect("sampler thread map poisoned");
    for entry in entries.flatten() {
        let Some(tid) = entry
            .file_name()
            .to_str()
            .and_then(|t| t.parse::<u32>().ok())
        else {
            continue;
        };
        let dir = entry.path();
        let Some(cpu) = std::fs::read_to_string(dir.join("schedstat"))
            .ok()
            .and_then(|s| s.split_whitespace().next()?.parse::<u64>().ok())
        else {
            continue;
        };
        match map.get_mut(&tid) {
            Some(slot) => slot.1 = cpu,
            None => {
                let name = std::fs::read_to_string(dir.join("comm"))
                    .map(|n| n.trim_end().to_string())
                    .unwrap_or_default();
                map.insert(tid, (name, cpu));
            }
        }
    }
}

/// Resident set size of this process in bytes.
pub fn rss_bytes() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmRSS:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kb| kb * 1024)
}

/// Disk space allocated under `dir`, directories included, as `du`
/// counts it (512-byte blocks).
pub fn dir_bytes(dir: &Path) -> u64 {
    use std::os::unix::fs::MetadataExt as _;
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| {
            let own = e.metadata().map_or(0, |m| m.blocks() * 512);
            match e.file_type() {
                Ok(t) if t.is_dir() => own + dir_bytes(&e.path()),
                _ => own,
            }
        })
        .sum()
}

/// Filesystem type of the mount holding `path`, from `/proc/self/mounts`.
pub fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let _dev = f.next()?;
            let mount = f.next()?;
            let fs = f.next()?;
            path.starts_with(mount)
                .then(|| (mount.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}
