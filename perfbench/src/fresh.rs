//! Untraced `max` runs, each in a fresh process.
//!
//! Inside one process, resident memory grows from job run to job run and
//! later runs reuse what earlier ones freed, so only a process's first
//! run gives a comparable memory figure. The untraced run therefore
//! starts the benchmark binary once per `max` run with `--fresh-run`;
//! that child sets up, runs the job once, checks its output, and prints
//! one [`FreshRun`] line, which the parent reads.

use std::io::Read;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use crate::job::Store;
use crate::workloads::Workload;

/// A child slower than this is killed and counted as failed; its job
/// already times out after 60 s.
const CHILD_TIMEOUT: Duration = Duration::from_secs(90);

/// Marks the child's report line.
const TAG: &str = "perfbench-fresh-run";

/// What one `max` run in a fresh process measured.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FreshRun {
    /// Set-up time, seconds.
    pub setup_s: f64,
    /// Wall time of `run_job`, seconds.
    pub wall_s: f64,
    /// Source events pulled.
    pub pulls: u64,
    /// Peak bytes under the job's data dir.
    pub disk_peak: u64,
    /// Peak resident bytes during the job over the size right before it.
    pub rss_growth: u64,
    /// Checks made and failed (job output, lookups).
    pub attempted: u64,
    pub failed: u64,
    /// Output rows, window firings and output CRC32.
    pub outputs: u64,
    pub firings: u64,
    pub crc: u32,
    /// Round trips per second the serve client reached (0 without one).
    pub round_trips_per_s: f64,
}

impl FreshRun {
    /// Source events per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.pulls as f64 / self.wall_s
    }

    /// The child's report line.
    pub fn to_line(self) -> String {
        format!(
            "{TAG} {} {} {} {} {} {} {} {} {} {} {}",
            self.setup_s,
            self.wall_s,
            self.pulls,
            self.disk_peak,
            self.rss_growth,
            self.attempted,
            self.failed,
            self.outputs,
            self.firings,
            self.crc,
            self.round_trips_per_s
        )
    }

    /// Parses a report line.
    pub fn parse(line: &str) -> Option<FreshRun> {
        let mut f = line.strip_prefix(TAG)?.split_whitespace();
        let mut next = || f.next();
        let run = FreshRun {
            setup_s: next()?.parse().ok()?,
            wall_s: next()?.parse().ok()?,
            pulls: next()?.parse().ok()?,
            disk_peak: next()?.parse().ok()?,
            rss_growth: next()?.parse().ok()?,
            attempted: next()?.parse().ok()?,
            failed: next()?.parse().ok()?,
            outputs: next()?.parse().ok()?,
            firings: next()?.parse().ok()?,
            crc: next()?.parse().ok()?,
            round_trips_per_s: next()?.parse().ok()?,
        };
        next().is_none().then_some(run)
    }
}

/// Runs one `max` run of `wl` in a fresh process and waits for it. The
/// child checks its output against `reference` (rows, CRC32).
pub fn run(
    wl: &Workload,
    seed: u64,
    store: Store,
    reference: (u64, u32),
) -> Result<FreshRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", wl.name, "--trace", "0", "--seconds", "1"])
        .args(["--seed", &seed.to_string()])
        .args(["--store", store.name()])
        .args(["--lookup-rate", &wl.lookup_rate.to_string()])
        .args(["--fresh-run", &format!("{}:{}", reference.0, reference.1)])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("start fresh run: {e}"))?;
    let deadline = Instant::now() + CHILD_TIMEOUT;
    let status = loop {
        match child.try_wait() {
            Ok(Some(status)) => break status,
            Ok(None) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(5)),
            Ok(None) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("fresh run exceeded {} s", CHILD_TIMEOUT.as_secs()));
            }
            Err(e) => return Err(format!("wait for fresh run: {e}")),
        }
    };
    let mut out = String::new();
    if let Some(mut stdout) = child.stdout.take() {
        let _ = stdout.read_to_string(&mut out);
    }
    if !status.success() {
        return Err(format!("fresh run exited with {status}"));
    }
    out.lines()
        .rev()
        .find_map(FreshRun::parse)
        .ok_or_else(|| "fresh run printed no report".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_line_round_trips() {
        let run = FreshRun {
            setup_s: 0.125,
            wall_s: 1.5,
            pulls: 300_000,
            disk_peak: 4096,
            rss_growth: 1 << 20,
            attempted: 3,
            failed: 1,
            outputs: 2000,
            firings: 2,
            crc: 0x9a75_3692,
            round_trips_per_s: 3499.5,
        };
        assert_eq!(FreshRun::parse(&run.to_line()), Some(run));
        assert_eq!(FreshRun::parse("max run 1"), None);
        assert_eq!(FreshRun::parse(&format!("{} 7", run.to_line())), None);
    }
}
