//! Background I/O ring: a completion-queue-style submission API backed by
//! a small thread pool over the [`Vfs`](crate::vfs::Vfs) seam.
//!
//! The ring exists so stores can move *anticipatable* reads — predictive
//! batch reads ahead of an ETT-predicted trigger, per-window AAR log
//! scans, LSM block warm-ups, cold-tier window reads — off the worker's
//! hot path. It carries prefetches only: a read the worker needs now
//! gains nothing from a pool thread it would wait on, so demand reads
//! stay synchronous. The shape deliberately mirrors io_uring: callers
//! `submit` jobs tagged with an opaque `tag`, the pool executes them
//! against the ring's shared `Arc<dyn Vfs>`, and callers later
//! `drain_tag` finished completions (non-blocking) or `wait` on a
//! specific prefetch already in flight.
//!
//! Two properties make the ring safe to thread through a deterministic,
//! fault-injected system:
//!
//! 1. **Faults still fire.** Jobs receive the ring's VFS handle — the
//!    *same* `FaultVfs` the rest of the worker uses — so the global fault
//!    op counter covers background I/O too. A `FaultKind::Crash` that
//!    fires on a pool thread panics there; the ring catches the unwind,
//!    parks the payload in the completion, and re-raises it verbatim on
//!    the worker thread when the completion is consumed
//!    ([`Completion::into_result`]). The supervisor sees an ordinary
//!    worker panic and recovery proceeds as if the read had been
//!    synchronous.
//! 2. **Order never matters.** Completions are a bag, not a queue:
//!    consumers must validate results against current store state before
//!    installing them. [`IoRing::with_shuffle_seed`] builds a ring that
//!    inserts completions at seeded pseudo-random positions so tests can
//!    prove output equivalence under adversarial completion orderings.

use std::any::Any;
use std::collections::VecDeque;
use std::io;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use crate::vfs::Vfs;

/// A background job: runs on a pool thread against the ring's VFS and
/// returns an arbitrary payload for the submitter to downcast.
pub type IoJob = Box<dyn FnOnce(&Arc<dyn Vfs>) -> io::Result<Box<dyn Any + Send>> + Send>;

/// How a background job ended.
pub enum IoOutcome {
    /// The job returned a payload.
    Ok(Box<dyn Any + Send>),
    /// The job returned an I/O error (e.g. an injected fault).
    Err(io::Error),
    /// The job panicked; the unwind payload is carried so the consumer
    /// can re-raise it on its own thread.
    Panicked(Box<dyn Any + Send>),
}

impl std::fmt::Debug for IoOutcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoOutcome::Ok(_) => f.write_str("IoOutcome::Ok(..)"),
            IoOutcome::Err(e) => write!(f, "IoOutcome::Err({e})"),
            IoOutcome::Panicked(_) => f.write_str("IoOutcome::Panicked(..)"),
        }
    }
}

/// A finished submission.
///
/// The three timestamps (nanoseconds from the ring's creation) record
/// the job's full lifecycle — `submit` when it was queued, `start`
/// when a pool thread picked it up, `done` when it finished — so
/// consumers can distinguish queueing delay from execution time. The
/// `start − submit` gap also feeds the `prefetch_queue_delay_nanos`
/// histogram when the ring carries a telemetry handle.
#[derive(Debug)]
pub struct Completion {
    /// The id `submit` returned for this job.
    pub id: u64,
    /// The caller-chosen routing tag the job was submitted under.
    pub tag: u64,
    /// The job's result.
    pub outcome: IoOutcome,
    /// Nanoseconds (ring epoch) when the job was submitted.
    pub submit_nanos: u64,
    /// Nanoseconds (ring epoch) when a pool thread started the job.
    pub start_nanos: u64,
    /// Nanoseconds (ring epoch) when the job finished.
    pub done_nanos: u64,
}

impl Completion {
    /// Time the job sat queued before a pool thread picked it up.
    pub fn queue_delay_nanos(&self) -> u64 {
        self.start_nanos.saturating_sub(self.submit_nanos)
    }
}

impl Completion {
    /// Unwraps the payload, re-raising a captured panic on the calling
    /// thread — this is what keeps injected crash faults deterministic:
    /// the original panic payload surfaces on the worker exactly where
    /// the completion is consumed.
    pub fn into_result(self) -> io::Result<Box<dyn Any + Send>> {
        match self.outcome {
            IoOutcome::Ok(payload) => Ok(payload),
            IoOutcome::Err(e) => Err(e),
            IoOutcome::Panicked(payload) => resume_unwind(payload),
        }
    }
}

/// Per-worker I/O policy: how many ring threads to run and how far ahead
/// (in event time) the prefetcher may look. Carried on
/// [`OperatorContext`](crate::backend::OperatorContext) so each backend
/// factory can build a ring over its own VFS.
#[derive(Clone, Debug)]
pub struct IoPolicy {
    /// Pool threads per backend ring. `0` disables the ring entirely
    /// (callers must treat `threads == 0` as "stay synchronous").
    pub threads: usize,
    /// How far ahead of current stream time (milliseconds of event time)
    /// prefetch submissions may target.
    pub prefetch_horizon: i64,
    /// Soft cap on bytes of prefetched state resident per store instance.
    pub prefetch_budget_bytes: u64,
    /// Test knob: when set, completions are inserted at seeded
    /// pseudo-random queue positions to exercise reordering.
    pub shuffle_seed: Option<u64>,
}

impl IoPolicy {
    /// A policy with `threads` ring threads and default horizon/budget.
    pub fn with_threads(threads: usize) -> Self {
        IoPolicy {
            threads,
            prefetch_horizon: 500,
            prefetch_budget_bytes: 8 << 20,
            shuffle_seed: None,
        }
    }
}

struct QueuedJob {
    id: u64,
    tag: u64,
    job: IoJob,
    submit_nanos: u64,
    /// Trace context captured from the submitting thread, so the pool
    /// thread's span parents to the exact store call that issued the
    /// read ([`crate::trace`]).
    ctx: Option<crate::trace::TraceCtx>,
}

struct RingState {
    queue: VecDeque<QueuedJob>,
    completions: Vec<Completion>,
    in_flight: usize,
    next_id: u64,
    shutdown: bool,
    shuffle: Option<u64>,
}

struct Shared {
    state: Mutex<RingState>,
    /// Signalled when work arrives or shutdown is requested.
    work: Condvar,
    /// Signalled when a completion lands.
    done: Condvar,
    /// Clock origin for the completion timestamps.
    epoch: std::time::Instant,
    /// When present: queue-delay histogram plus span recording for
    /// traced jobs.
    telemetry: Option<Arc<crate::telemetry::Telemetry>>,
}

/// The ring itself. Clone the `Arc<IoRing>` freely; submissions from any
/// thread are fair-queued to the pool.
pub struct IoRing {
    shared: Arc<Shared>,
    vfs: Arc<dyn Vfs>,
    workers: Vec<JoinHandle<()>>,
}

impl IoRing {
    /// Builds a ring with `threads` pool threads (min 1) over `vfs`.
    pub fn new(vfs: Arc<dyn Vfs>, threads: usize) -> Self {
        Self::build(vfs, threads, None, None)
    }

    /// Like [`IoRing::new`] but completions are inserted at seeded
    /// pseudo-random positions among the already-pending completions, so
    /// drain order is adversarial yet reproducible.
    pub fn with_shuffle_seed(vfs: Arc<dyn Vfs>, threads: usize, seed: u64) -> Self {
        Self::build(vfs, threads, Some(seed), None)
    }

    /// The constructor backend factories use: optional seeded shuffle
    /// plus a telemetry handle. With telemetry the ring records the
    /// `prefetch_queue_delay_nanos` histogram on every completion and,
    /// when a tracer is installed, an `io`-category span for every job
    /// submitted under an active trace context.
    pub fn with_telemetry(
        vfs: Arc<dyn Vfs>,
        threads: usize,
        shuffle: Option<u64>,
        telemetry: Option<Arc<crate::telemetry::Telemetry>>,
    ) -> Self {
        Self::build(vfs, threads, shuffle, telemetry)
    }

    fn build(
        vfs: Arc<dyn Vfs>,
        threads: usize,
        shuffle: Option<u64>,
        telemetry: Option<Arc<crate::telemetry::Telemetry>>,
    ) -> Self {
        let shared = Arc::new(Shared {
            state: Mutex::new(RingState {
                queue: VecDeque::new(),
                completions: Vec::new(),
                in_flight: 0,
                next_id: 0,
                shutdown: false,
                shuffle,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
            epoch: std::time::Instant::now(),
            telemetry,
        });
        let workers = (0..threads.max(1))
            .map(|i| {
                let shared = Arc::clone(&shared);
                let vfs = Arc::clone(&vfs);
                std::thread::Builder::new()
                    .name(format!("flowkv-ioring-{i}"))
                    .spawn(move || worker_loop(shared, vfs))
                    .expect("spawn ioring worker")
            })
            .collect();
        IoRing {
            shared,
            vfs,
            workers,
        }
    }

    /// The VFS the ring's jobs run against.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// Queues `job` under `tag` and returns its submission id. The
    /// submitting thread's active trace context (if any) rides along so
    /// the job's span links back to the store call that issued it.
    pub fn submit(&self, tag: u64, job: IoJob) -> u64 {
        let submit_nanos = self.shared.epoch.elapsed().as_nanos() as u64;
        let ctx = crate::trace::current();
        let mut st = self.shared.state.lock().expect("ioring lock");
        let id = st.next_id;
        st.next_id += 1;
        st.queue.push_back(QueuedJob {
            id,
            tag,
            job,
            submit_nanos,
            ctx,
        });
        drop(st);
        self.shared.work.notify_one();
        id
    }

    /// Removes and returns every finished completion for `tag` without
    /// blocking. Jobs still queued or running are left alone.
    pub fn drain_tag(&self, tag: u64) -> Vec<Completion> {
        let mut st = self.shared.state.lock().expect("ioring lock");
        let mut out = Vec::new();
        let mut i = 0;
        while i < st.completions.len() {
            if st.completions[i].tag == tag {
                out.push(st.completions.remove(i));
            } else {
                i += 1;
            }
        }
        out
    }

    /// Blocks until submission `id` completes and returns it.
    pub fn wait(&self, id: u64) -> Completion {
        let mut st = self.shared.state.lock().expect("ioring lock");
        loop {
            if let Some(pos) = st.completions.iter().position(|c| c.id == id) {
                return st.completions.remove(pos);
            }
            st = self.shared.done.wait(st).expect("ioring wait");
        }
    }

    /// Blocks until nothing is queued or running. Finished completions
    /// are left in place for `drain_tag`/`wait` — unlike [`IoRing::quiesce`],
    /// which takes them.
    pub fn wait_idle(&self) {
        let mut st = self.shared.state.lock().expect("ioring lock");
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.shared.done.wait(st).expect("ioring idle");
        }
    }

    /// Blocks until nothing is queued or running, then removes and
    /// returns every remaining completion (all tags).
    pub fn quiesce(&self) -> Vec<Completion> {
        let mut st = self.shared.state.lock().expect("ioring lock");
        while !st.queue.is_empty() || st.in_flight > 0 {
            st = self.shared.done.wait(st).expect("ioring quiesce");
        }
        std::mem::take(&mut st.completions)
    }

    /// Submissions queued or running (completions not yet drained do not
    /// count).
    pub fn pending(&self) -> usize {
        let st = self.shared.state.lock().expect("ioring lock");
        st.queue.len() + st.in_flight
    }
}

impl Drop for IoRing {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("ioring lock");
            st.shutdown = true;
        }
        self.shared.work.notify_all();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn worker_loop(shared: Arc<Shared>, vfs: Arc<dyn Vfs>) {
    // Resolved lazily because the tracer is typically installed on the
    // telemetry handle after the backend (and its ring) was built.
    let mut recorder: Option<Arc<crate::trace::SpanRecorder>> = None;
    let queue_delay = shared
        .telemetry
        .as_ref()
        .map(|t| t.registry().histogram("prefetch_queue_delay_nanos"));
    loop {
        let queued = {
            let mut st = shared.state.lock().expect("ioring lock");
            loop {
                if let Some(job) = st.queue.pop_front() {
                    st.in_flight += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = shared.work.wait(st).expect("ioring worker wait");
            }
        };
        let QueuedJob {
            id,
            tag,
            job,
            submit_nanos,
            ctx,
        } = queued;
        let start_nanos = shared.epoch.elapsed().as_nanos() as u64;
        let span = ctx.and_then(|ctx| {
            if recorder.is_none() {
                recorder = shared.telemetry.as_ref().and_then(|t| t.trace()).map(|h| {
                    let name = std::thread::current()
                        .name()
                        .unwrap_or("ioring")
                        .to_string();
                    h.thread(&name)
                });
            }
            recorder.as_ref().map(|rec| {
                rec.begin_with(
                    "io_job",
                    "io",
                    Some(ctx),
                    vec![
                        ("job", id as i64),
                        ("tag", tag as i64),
                        (
                            "queue_delay",
                            start_nanos.saturating_sub(submit_nanos) as i64,
                        ),
                    ],
                )
            })
        });
        let outcome = match catch_unwind(AssertUnwindSafe(|| job(&vfs))) {
            Ok(Ok(payload)) => IoOutcome::Ok(payload),
            Ok(Err(e)) => IoOutcome::Err(e),
            Err(payload) => IoOutcome::Panicked(payload),
        };
        let done_nanos = shared.epoch.elapsed().as_nanos() as u64;
        if let (Some(span), Some(rec)) = (span, recorder.as_ref()) {
            rec.end_with(
                span,
                "io_job",
                "io",
                vec![("ok", matches!(outcome, IoOutcome::Ok(_)) as i64)],
            );
        }
        if let Some(h) = &queue_delay {
            h.record(start_nanos.saturating_sub(submit_nanos));
        }
        let mut st = shared.state.lock().expect("ioring lock");
        st.in_flight -= 1;
        let completion = Completion {
            id,
            tag,
            outcome,
            submit_nanos,
            start_nanos,
            done_nanos,
        };
        match st.shuffle {
            Some(ref mut seed) => {
                // SplitMix64 step, mirroring vfs::FaultPlan's generator, so
                // reorder tests are reproducible from a single seed.
                *seed = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = *seed;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                let pos = (z as usize) % (st.completions.len() + 1);
                st.completions.insert(pos, completion);
            }
            None => st.completions.push(completion),
        }
        drop(st);
        shared.done.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::StdVfs;

    fn ring(threads: usize) -> IoRing {
        IoRing::new(StdVfs::shared(), threads)
    }

    #[test]
    fn submit_and_drain_by_tag() {
        let r = ring(2);
        for i in 0..4u64 {
            r.submit(i % 2, Box::new(move |_vfs| Ok(Box::new(i) as _)));
        }
        let mut even: Vec<u64> = Vec::new();
        while even.len() < 2 {
            for c in r.drain_tag(0) {
                even.push(*c.into_result().unwrap().downcast::<u64>().unwrap());
            }
        }
        even.sort_unstable();
        assert_eq!(even, vec![0, 2]);
        let odd = r.quiesce();
        assert!(odd.iter().all(|c| c.tag == 1));
        assert_eq!(odd.len(), 2);
    }

    #[test]
    fn wait_blocks_for_specific_id() {
        let r = ring(1);
        let slow = r.submit(
            7,
            Box::new(|_vfs| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                Ok(Box::new("slow".to_string()) as _)
            }),
        );
        let fast = r.submit(7, Box::new(|_vfs| Ok(Box::new("fast".to_string()) as _)));
        let c = r.wait(fast);
        assert_eq!(
            *c.into_result().unwrap().downcast::<String>().unwrap(),
            "fast"
        );
        let c = r.wait(slow);
        assert_eq!(
            *c.into_result().unwrap().downcast::<String>().unwrap(),
            "slow"
        );
    }

    #[test]
    fn panics_are_captured_and_re_raised() {
        let r = ring(1);
        let id = r.submit(0, Box::new(|_vfs| panic!("flowkv-fault: injected crash")));
        let c = r.wait(id);
        assert!(matches!(c.outcome, IoOutcome::Panicked(_)));
        let err = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let _ = c.into_result();
        }))
        .unwrap_err();
        let msg = err.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "flowkv-fault: injected crash");
    }

    #[test]
    fn io_errors_surface_as_err() {
        let r = ring(1);
        let id = r.submit(
            0,
            Box::new(|vfs| {
                vfs.read(std::path::Path::new("/definitely/not/here.aurd"))?;
                Ok(Box::new(()) as _)
            }),
        );
        let c = r.wait(id);
        assert!(c.into_result().is_err());
    }

    #[test]
    fn shuffled_completion_order_is_deterministic() {
        let order = |seed: u64| -> Vec<u64> {
            let r = IoRing::with_shuffle_seed(StdVfs::shared(), 1, seed);
            for i in 0..8u64 {
                r.submit(0, Box::new(move |_vfs| Ok(Box::new(i) as _)));
            }
            r.quiesce()
                .into_iter()
                .map(|c| *c.into_result().unwrap().downcast::<u64>().unwrap())
                .collect()
        };
        // One pool thread finishes jobs in submission order, so any
        // deviation below comes from the seeded insert position.
        assert_eq!(order(42), order(42));
        assert_ne!(order(42), order(43));
    }

    #[test]
    fn completions_carry_lifecycle_timestamps() {
        let telemetry = crate::telemetry::Telemetry::new_shared();
        let r = IoRing::with_telemetry(StdVfs::shared(), 1, None, Some(Arc::clone(&telemetry)));
        // One slow job holds the single pool thread so the second job
        // accrues measurable queue delay.
        r.submit(
            0,
            Box::new(|_vfs| {
                std::thread::sleep(std::time::Duration::from_millis(10));
                Ok(Box::new(()) as _)
            }),
        );
        let id = r.submit(0, Box::new(|_vfs| Ok(Box::new(()) as _)));
        let c = r.wait(id);
        assert!(c.submit_nanos <= c.start_nanos);
        assert!(c.start_nanos <= c.done_nanos);
        assert!(c.queue_delay_nanos() >= 5_000_000, "second job waited");
        let snap = telemetry
            .registry()
            .histogram("prefetch_queue_delay_nanos")
            .snapshot();
        assert!(snap.count >= 2);
    }

    #[test]
    fn traced_submission_records_io_span() {
        let telemetry = crate::telemetry::Telemetry::new_shared();
        let tracer = crate::trace::Tracer::new();
        telemetry.set_trace(crate::trace::TraceHandle {
            tracer: Arc::clone(&tracer),
            pid: 0,
        });
        let r = IoRing::with_telemetry(StdVfs::shared(), 1, None, Some(Arc::clone(&telemetry)));
        let rec = tracer.thread(0, "submitter");
        let id = {
            let _scope = crate::trace::enter(
                &rec,
                crate::trace::TraceCtx {
                    trace: 9,
                    span: 4,
                    born: 0,
                },
            );
            r.submit(1, Box::new(|_vfs| Ok(Box::new(()) as _)))
        };
        let _ = r.wait(id);
        let threads = tracer.snapshot();
        let io = threads
            .iter()
            .flat_map(|t| &t.events)
            .find(|e| e.name == "io_job")
            .expect("io span recorded");
        assert_eq!(io.trace, 9);
        assert_eq!(io.parent, 4);
        // Untraced submissions stay silent.
        let before: usize = tracer.snapshot().iter().map(|t| t.events.len()).sum();
        let id = r.submit(1, Box::new(|_vfs| Ok(Box::new(()) as _)));
        let _ = r.wait(id);
        let after: usize = tracer.snapshot().iter().map(|t| t.events.len()).sum();
        assert_eq!(before, after);
    }

    #[test]
    fn quiesce_waits_for_running_jobs() {
        let r = ring(2);
        for _ in 0..6 {
            r.submit(
                3,
                Box::new(|_vfs| {
                    std::thread::sleep(std::time::Duration::from_millis(5));
                    Ok(Box::new(()) as _)
                }),
            );
        }
        let all = r.quiesce();
        assert_eq!(all.len(), 6);
        assert_eq!(r.pending(), 0);
    }
}
