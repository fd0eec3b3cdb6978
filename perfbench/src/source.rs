//! The source iterator handed to `run_job`: it yields pre-generated
//! tuples, optionally on an open-loop schedule, and records its pulls.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flowkv_common::telemetry::{Histogram, HistogramSnapshot};
use flowkv_common::types::Tuple;

/// Sleep only when the schedule is at least this far ahead; shorter
/// gaps are released at once, so the source runs in small bursts.
const MIN_SLEEP: Duration = Duration::from_micros(200);

/// What the source saw over one job run.
#[derive(Clone, Debug, Default)]
pub struct SourceStats {
    /// Tuples handed out.
    pub pulls: u64,
    /// Time between a pull returning and the next pull: the executor's
    /// exchange sends, backpressure included.
    pub blocked: Duration,
    /// How late each paced pull came against its schedule (nanoseconds).
    pub lag: HistogramSnapshot,
    /// Lateness of the final pull, which ends the stream.
    pub final_lag: Duration,
}

/// Open-loop source over a generated input.
pub struct Source {
    tuples: std::vec::IntoIter<Tuple>,
    rate: Option<f64>,
    record: bool,
    start: Option<Instant>,
    pulls: u64,
    last_return: Option<Instant>,
    blocked: Duration,
    lag: Histogram,
    final_lag: Duration,
    out: Arc<Mutex<Option<SourceStats>>>,
}

impl Source {
    /// Yields `tuples`, at `rate` tuples per second when given; pull
    /// gaps are timed only when `record` is set. The stats land in the
    /// returned slot when the stream ends.
    pub fn new(
        tuples: Vec<Tuple>,
        rate: Option<u64>,
        record: bool,
    ) -> (Self, Arc<Mutex<Option<SourceStats>>>) {
        let out = Arc::new(Mutex::new(None));
        let source = Source {
            tuples: tuples.into_iter(),
            rate: rate.map(|r| r as f64),
            record,
            start: None,
            pulls: 0,
            last_return: None,
            blocked: Duration::ZERO,
            lag: Histogram::new(),
            final_lag: Duration::ZERO,
            out: Arc::clone(&out),
        };
        (source, out)
    }

    fn publish(&mut self) {
        let stats = SourceStats {
            pulls: self.pulls,
            blocked: self.blocked,
            lag: self.lag.snapshot(),
            final_lag: self.final_lag,
        };
        *self.out.lock().expect("source stats lock poisoned") = Some(stats);
    }
}

impl Iterator for Source {
    type Item = Tuple;

    fn next(&mut self) -> Option<Tuple> {
        if self.rate.is_none() && !self.record {
            let item = self.tuples.next();
            if item.is_none() {
                self.publish();
            } else {
                self.pulls += 1;
            }
            return item;
        }
        let mut now = Instant::now();
        if let Some(last) = self.last_return {
            self.blocked += now.duration_since(last);
        }
        let start = *self.start.get_or_insert(now);
        if let Some(rate) = self.rate {
            let due = start + Duration::from_secs_f64(self.pulls as f64 / rate);
            if due > now + MIN_SLEEP {
                std::thread::sleep(due - now);
                now = Instant::now();
            }
            self.final_lag = now.saturating_duration_since(due);
            self.lag.record(self.final_lag.as_nanos() as u64);
        }
        let item = self.tuples.next();
        match item {
            Some(_) => self.pulls += 1,
            None => self.publish(),
        }
        self.last_return = Some(Instant::now());
        item
    }
}
