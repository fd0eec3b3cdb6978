//! The `q12-serve` client: one protocol-v2 connection sending a pipelined
//! mix of point lookups, `LookupMany` and `ScanFiltered` on an open-loop
//! schedule. Each round trip is timed from its scheduled send time, so a
//! stall also charges the requests queued behind it.
//!
//! The mix is the mixed phase of `serve_bench`: of every four round
//! trips, two carry 16 pipelined point lookups, one a `LookupMany` of 16
//! keys, and one a `ScanFiltered` over a 2-byte key prefix.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flowkv_common::telemetry::{Histogram, HistogramSnapshot};
use flowkv_common::types::{MAX_TIMESTAMP, MIN_TIMESTAMP};
use flowkv_serve::{Request, Response, ScanFilter, StateClient};

use crate::recorder::{Layer, Method, Recorder};
use crate::workloads::PARALLELISM;

/// Point lookups pipelined per point round trip, and keys per
/// `LookupMany` frame (`serve_bench`'s default `--depth`).
const DEPTH: usize = 16;
/// Key-prefix bytes of each filtered scan.
const SCAN_PREFIX: usize = 2;
/// Row limit of each filtered scan.
const SCAN_LIMIT: u64 = 64;
/// A round trip slower than this counts as failed.
const TIMEOUT: Duration = Duration::from_secs(2);
/// Longest wait for the job's first published snapshot.
const PUBLISH_WAIT: Duration = Duration::from_secs(20);

/// Client-side results of one job run.
#[derive(Clone, Debug, Default)]
pub struct LoadStats {
    /// Round trips scheduled and sent.
    pub attempted: u64,
    /// Round trips that errored, timed out or carried an error response.
    pub failed: u64,
    /// Seconds from the first scheduled send to the stop.
    pub seconds: f64,
    /// Latency of every round trip from its scheduled send (ns).
    pub all: HistogramSnapshot,
    /// Latency of point-lookup round trips (ns).
    pub point: HistogramSnapshot,
    /// Latency of `LookupMany` round trips (ns).
    pub many: HistogramSnapshot,
    /// Latency of `ScanFiltered` round trips (ns).
    pub scan: HistogramSnapshot,
    /// How late each send left against its schedule (ns).
    pub send_lag: HistogramSnapshot,
    /// The first failure, for the error report.
    pub first_error: Option<String>,
}

impl LoadStats {
    /// Round trips sent per second of the client's schedule.
    pub fn round_trips_per_s(&self) -> f64 {
        self.attempted as f64 / self.seconds.max(1e-9)
    }
}

/// A running client; [`Client::finish`] stops it and returns its stats.
pub struct Client {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<LoadStats>,
}

/// Which request a round trip sends.
#[derive(Clone, Copy)]
enum Kind {
    Point,
    Many,
    Scan,
}

impl Client {
    /// Starts sending to `addr` at `rate` round trips per second once the
    /// job has published `(job, operator)`; closed loop, each round trip
    /// sent as the last one returns, when `rate` is `None`.
    pub fn start(
        addr: SocketAddr,
        state: (&'static str, &'static str),
        keys: Arc<Vec<Vec<u8>>>,
        rate: Option<u64>,
        seed: u64,
        rec: Option<Arc<Recorder>>,
    ) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("perfbench-client".into())
            .spawn(move || run(addr, state, &keys, rate, seed, rec.as_deref(), &flag))
            .expect("spawn serve client");
        Client { stop, handle }
    }

    /// Stops the schedule and waits for the in-flight round trip.
    pub fn finish(self) -> LoadStats {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("serve client panicked")
    }
}

/// splitmix64: a seeded, dependency-free key picker.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick<'a>(&mut self, keys: &'a [Vec<u8>]) -> &'a Vec<u8> {
        &keys[(self.next() % keys.len() as u64) as usize]
    }
}

fn run(
    addr: SocketAddr,
    (job, operator): (&'static str, &'static str),
    keys: &[Vec<u8>],
    rate: Option<u64>,
    seed: u64,
    rec: Option<&Recorder>,
    stop: &AtomicBool,
) -> LoadStats {
    let mut stats = LoadStats::default();
    let fail = |mut stats: LoadStats, why: &str| {
        stats.attempted = 1;
        stats.failed = 1;
        stats.first_error = Some(why.to_string());
        stats
    };
    let Ok(mut client) = StateClient::connect(addr) else {
        return fail(stats, "connect failed");
    };
    if client.set_timeout(Some(TIMEOUT)).is_err() || !wait_published(&mut client, operator, stop) {
        return fail(stats, "state was never published");
    }
    let (all, point, many, scan, send_lag) = (
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
        Histogram::new(),
    );
    let mut rng = Rng(seed ^ 0x5eed_c11e);
    let start = Instant::now();
    let mut k = 0u64;
    while !stop.load(Ordering::Relaxed) {
        let due = match rate {
            Some(rate) => start + Duration::from_secs_f64(k as f64 / rate as f64),
            None => Instant::now(),
        };
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        send_lag.record(Instant::now().saturating_duration_since(due).as_nanos() as u64);
        let kind = match k % 4 {
            0 => Kind::Many,
            1 => Kind::Scan,
            _ => Kind::Point,
        };
        let requests: Vec<Request> = match kind {
            Kind::Point => (0..DEPTH)
                .map(|_| Request::Lookup {
                    job: job.into(),
                    operator: operator.into(),
                    key: rng.pick(keys).clone(),
                    window: None,
                })
                .collect(),
            Kind::Many => vec![Request::LookupMany {
                job: job.into(),
                operator: operator.into(),
                keys: (0..DEPTH).map(|_| rng.pick(keys).clone()).collect(),
                window: None,
            }],
            Kind::Scan => vec![Request::ScanFiltered {
                job: job.into(),
                operator: operator.into(),
                filter: ScanFilter::range(MIN_TIMESTAMP, MAX_TIMESTAMP, SCAN_LIMIT)
                    .with_prefix(rng.pick(keys)[..SCAN_PREFIX].to_vec()),
            }],
        };
        let span = match kind {
            Kind::Point => "serve.point",
            Kind::Many => "serve.many",
            Kind::Scan => "serve.scan",
        };
        let responses = match rec {
            Some(rec) => {
                rec.call(Layer::Serve, Method::Other, Some(span), || {
                    client.call_batch(&requests)
                })
                .0
            }
            None => client.call_batch(&requests),
        };
        let latency = Instant::now().saturating_duration_since(due).as_nanos() as u64;
        stats.attempted += 1;
        let ok = match &responses {
            Ok(responses) => {
                responses.len() == requests.len()
                    && responses.iter().all(|r| match (kind, r) {
                        (Kind::Point, Response::Value { .. }) => true,
                        (Kind::Many, Response::ValueBatch { found, .. }) => found.len() == DEPTH,
                        (Kind::Scan, Response::ScanResult { .. }) => true,
                        _ => false,
                    })
            }
            Err(_) => false,
        };
        if !ok {
            stats.failed += 1;
            if stats.first_error.is_none() {
                let mut why = format!("{responses:?}");
                why.truncate(300);
                stats.first_error = Some(why);
            }
            if responses.is_err() {
                // The connection is unusable after a transport error.
                break;
            }
        }
        all.record(latency);
        match kind {
            Kind::Point => point.record(latency),
            Kind::Many => many.record(latency),
            Kind::Scan => scan.record(latency),
        }
        k += 1;
    }
    stats.seconds = start.elapsed().as_secs_f64();
    stats.all = all.snapshot();
    stats.point = point.snapshot();
    stats.many = many.snapshot();
    stats.scan = scan.snapshot();
    stats.send_lag = send_lag.snapshot();
    stats
}

/// Polls until every partition of the operator's state is listed; false
/// if the job ended or the wait timed out first.
fn wait_published(client: &mut StateClient, operator: &str, stop: &AtomicBool) -> bool {
    let deadline = Instant::now() + PUBLISH_WAIT;
    while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
        match client.list_states() {
            Ok(states)
                if states.iter().filter(|s| s.key.operator == operator).count() == PARALLELISM =>
            {
                return true
            }
            Ok(_) => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => return false,
        }
    }
    false
}
