//! What the traced run records: per-method call statistics, self time by
//! layer, Vfs traffic, and a bounded buffer of spans that is written out
//! as Chrome trace-event JSON.
//!
//! Self time is kept exactly without storing every span: each thread
//! keeps a stack of open wrapper calls, and a call that ends adds its
//! duration to the call below it on the same thread. A call's self time
//! is its duration minus the durations of the calls nested in it.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use flowkv_common::telemetry::Histogram;

/// Spans kept per run; later spans are counted as dropped.
const SPAN_CAPACITY: usize = 200_000;

/// The `StateBackend` methods timed by the outer wrapper, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Method {
    Append,
    GetWindowChunk,
    TakeValues,
    PeekValues,
    TakeAggregate,
    PutAggregate,
    Flush,
    AdvancePrefetch,
    ReadView,
    /// Everything else: warm-ups, hints, migration, checkpoint, close.
    Other,
}

impl Method {
    /// Every method, indexable by `as usize`.
    pub const ALL: [Method; 10] = [
        Method::Append,
        Method::GetWindowChunk,
        Method::TakeValues,
        Method::PeekValues,
        Method::TakeAggregate,
        Method::PutAggregate,
        Method::Flush,
        Method::AdvancePrefetch,
        Method::ReadView,
        Method::Other,
    ];

    /// Metric name fragment.
    pub fn name(self) -> &'static str {
        match self {
            Method::Append => "append",
            Method::GetWindowChunk => "get_window_chunk",
            Method::TakeValues => "take_values",
            Method::PeekValues => "peek_values",
            Method::TakeAggregate => "take_aggregate",
            Method::PutAggregate => "put_aggregate",
            Method::Flush => "flush",
            Method::AdvancePrefetch => "advance_prefetch",
            Method::ReadView => "read_view",
            Method::Other => "other",
        }
    }

    /// Whether the executor calls this once per tuple (or per batch of
    /// one): such calls go into the histogram only, never into spans.
    pub fn per_tuple(self) -> bool {
        matches!(
            self,
            Method::Append | Method::TakeAggregate | Method::PutAggregate | Method::AdvancePrefetch
        )
    }
}

/// Call count, total time and latency histogram of one call site.
#[derive(Default)]
pub struct CallStats {
    calls: AtomicU64,
    nanos: AtomicU64,
    hist: Histogram,
}

impl CallStats {
    fn record(&self, nanos: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos.fetch_add(nanos, Ordering::Relaxed);
        self.hist.record(nanos);
    }

    /// Calls recorded.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Total seconds.
    pub fn secs(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// 99th-percentile call time in microseconds.
    pub fn p99_us(&self) -> f64 {
        self.hist.snapshot().quantile(0.99) as f64 / 1e3
    }
}

/// Which thread issued a Vfs call.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum ThreadClass {
    /// An executor worker (`spe-*`): its reads block the operator.
    Worker,
    /// An I/O ring thread (`flowkv-ioring-*`): off the critical path.
    Ring,
    /// Anything else.
    Other,
}

thread_local! {
    static CLASS: Cell<Option<ThreadClass>> = const { Cell::new(None) };
    static TID: Cell<u32> = const { Cell::new(0) };
    static FRAMES: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
}

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

/// Classifies the calling thread by name (cached per thread).
pub fn thread_class() -> ThreadClass {
    CLASS.with(|c| {
        if let Some(class) = c.get() {
            return class;
        }
        let name = std::thread::current().name().unwrap_or("").to_string();
        let class = if name.starts_with("flowkv-ioring") {
            ThreadClass::Ring
        } else if name.starts_with("spe-") {
            ThreadClass::Worker
        } else {
            ThreadClass::Other
        };
        c.set(Some(class));
        class
    })
}

/// Counters of the counting Vfs.
#[derive(Default)]
pub struct VfsStats {
    pub nanos: AtomicU64,
    pub read_ops: AtomicU64,
    pub read_bytes: AtomicU64,
    pub write_ops: AtomicU64,
    pub write_bytes: AtomicU64,
    pub syncs: AtomicU64,
    pub worker_read_ops: AtomicU64,
    pub worker_read_nanos: AtomicU64,
    pub ring_read_ops: AtomicU64,
    pub ring_read_nanos: AtomicU64,
    pub ring_read_bytes: AtomicU64,
    pub tier_read_bytes: AtomicU64,
    pub tier_write_bytes: AtomicU64,
}

impl VfsStats {
    /// Charges one read of `bytes` that took `nanos`.
    pub fn read(&self, bytes: u64, nanos: u64, tier: bool) {
        self.read_ops.fetch_add(1, Ordering::Relaxed);
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
        if tier {
            self.tier_read_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
        match thread_class() {
            ThreadClass::Worker => {
                self.worker_read_ops.fetch_add(1, Ordering::Relaxed);
                self.worker_read_nanos.fetch_add(nanos, Ordering::Relaxed);
            }
            ThreadClass::Ring => {
                self.ring_read_ops.fetch_add(1, Ordering::Relaxed);
                self.ring_read_nanos.fetch_add(nanos, Ordering::Relaxed);
                self.ring_read_bytes.fetch_add(bytes, Ordering::Relaxed);
            }
            ThreadClass::Other => {}
        }
    }

    /// Charges one write of `bytes`.
    pub fn write(&self, bytes: u64, tier: bool) {
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
        if tier {
            self.tier_write_bytes.fetch_add(bytes, Ordering::Relaxed);
        }
    }
}

/// The layer a timed call belongs to.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The wrapper the executor calls (FlowKV, or `TieredStore` around it).
    Outer,
    /// The wrapper between `TieredStore` and its hot FlowKV store.
    Inner,
    /// The counting Vfs.
    Vfs,
    /// A serve-client round trip.
    Serve,
}

impl Layer {
    /// Span category in the trace file.
    fn name(self) -> &'static str {
        match self {
            Layer::Outer => "store",
            Layer::Inner => "hot-store",
            Layer::Vfs => "vfs",
            Layer::Serve => "serve",
        }
    }
}

struct Frame {
    id: u64,
    child_nanos: u64,
}

/// One recorded span (times in nanoseconds since the recorder's epoch).
struct Span {
    name: &'static str,
    layer: Layer,
    id: u64,
    parent: u64,
    tid: u32,
    start: u64,
    end: u64,
}

/// Everything one traced job run records.
pub struct Recorder {
    epoch: Instant,
    /// Outer-wrapper statistics, indexed by `Method as usize`.
    pub methods: Vec<CallStats>,
    /// Key + value bytes handed to `append` (write-amplification base).
    pub append_bytes: AtomicU64,
    /// Calls into the inner (hot-store) wrapper.
    pub inner: CallStats,
    /// Self time of outer-wrapper calls.
    pub outer_self_nanos: AtomicU64,
    /// Self time of inner-wrapper calls.
    pub inner_self_nanos: AtomicU64,
    /// Wall time of outer-wrapper calls made on executor worker threads.
    pub outer_worker_nanos: AtomicU64,
    /// Counting-Vfs traffic.
    pub vfs: VfsStats,
    spans: Mutex<Vec<Span>>,
    threads: Mutex<Vec<(u32, String)>>,
    dropped: AtomicU64,
    next_id: AtomicU64,
}

impl Recorder {
    /// A fresh recorder whose span clock starts now.
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            methods: Method::ALL.iter().map(|_| CallStats::default()).collect(),
            append_bytes: AtomicU64::new(0),
            inner: CallStats::default(),
            outer_self_nanos: AtomicU64::new(0),
            inner_self_nanos: AtomicU64::new(0),
            outer_worker_nanos: AtomicU64::new(0),
            vfs: VfsStats::default(),
            spans: Mutex::new(Vec::new()),
            threads: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
        }
    }

    /// Statistics of one outer-wrapper method.
    pub fn method(&self, m: Method) -> &CallStats {
        &self.methods[m as usize]
    }

    /// Spans that did not fit the buffer.
    pub fn dropped_spans(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Runs `f` as one call of `layer`, charging its duration and self
    /// time; `span` names the span to record, if any. Returns `f`'s
    /// result and the call's duration in nanoseconds.
    pub fn call<T>(
        &self,
        layer: Layer,
        method: Method,
        span: Option<&'static str>,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let id = match span {
            Some(_) => self.next_id.fetch_add(1, Ordering::Relaxed),
            None => 0,
        };
        let parent = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let parent = frames.last().map_or(0, |f| f.id);
            frames.push(Frame { id, child_nanos: 0 });
            parent
        });
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        let nanos = end.duration_since(start).as_nanos() as u64;
        let child = FRAMES.with(|frames| {
            let mut frames = frames.borrow_mut();
            let frame = frames.pop().expect("frame pushed above");
            if let Some(up) = frames.last_mut() {
                up.child_nanos += nanos;
            }
            frame.child_nanos
        });
        let self_nanos = nanos.saturating_sub(child);
        match layer {
            Layer::Outer => {
                self.methods[method as usize].record(nanos);
                self.outer_self_nanos
                    .fetch_add(self_nanos, Ordering::Relaxed);
                if thread_class() == ThreadClass::Worker {
                    self.outer_worker_nanos.fetch_add(nanos, Ordering::Relaxed);
                }
            }
            Layer::Inner => {
                self.inner.record(nanos);
                self.inner_self_nanos
                    .fetch_add(self_nanos, Ordering::Relaxed);
            }
            Layer::Vfs => {
                self.vfs.nanos.fetch_add(nanos, Ordering::Relaxed);
            }
            Layer::Serve => {}
        }
        if let Some(name) = span {
            self.push_span(name, layer, id, parent, start, end);
        }
        (out, nanos)
    }

    fn push_span(
        &self,
        name: &'static str,
        layer: Layer,
        id: u64,
        parent: u64,
        start: Instant,
        end: Instant,
    ) {
        let tid = self.tid();
        let span = Span {
            name,
            layer,
            id,
            parent,
            tid,
            start: start.duration_since(self.epoch).as_nanos() as u64,
            end: end.duration_since(self.epoch).as_nanos() as u64,
        };
        let mut spans = self.spans.lock().expect("span buffer lock poisoned");
        if spans.len() < SPAN_CAPACITY {
            spans.push(span);
        } else {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A small per-process thread id for the trace, registering the
    /// thread's name the first time this recorder sees it.
    fn tid(&self) -> u32 {
        let tid = TID.with(|t| {
            if t.get() == 0 {
                t.set(NEXT_TID.fetch_add(1, Ordering::Relaxed) as u32);
            }
            t.get()
        });
        let mut threads = self.threads.lock().expect("thread list lock poisoned");
        if !threads.iter().any(|(t, _)| *t == tid) {
            let name = std::thread::current()
                .name()
                .unwrap_or("unnamed")
                .to_string();
            threads.push((tid, name));
        }
        tid
    }

    /// Writes the spans as Chrome trace-event JSON (loadable in Perfetto).
    pub fn write_chrome_trace(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer lock poisoned");
        let threads = self.threads.lock().expect("thread list lock poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        let mut first = true;
        for (tid, name) in threads.iter() {
            if !first {
                write!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":{}}}}}",
                crate::report::json_string(name)
            )?;
        }
        for s in spans.iter() {
            if !first {
                write!(out, ",")?;
            }
            first = false;
            write!(
                out,
                "{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"{}\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}",
                s.name,
                s.layer.name(),
                s.tid,
                s.start as f64 / 1e3,
                (s.end - s.start) as f64 / 1e3,
                s.id,
                s.parent
            )?;
        }
        write!(
            out,
            "],\"otherData\":{{\"spans\":{},\"dropped_spans\":{}}}}}",
            spans.len(),
            self.dropped_spans()
        )?;
        out.flush()
    }
}
