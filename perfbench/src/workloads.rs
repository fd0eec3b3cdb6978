//! The benchmark's workloads: which query runs on which store layout, how
//! much input it gets, the paced rate, and the committed reference output.

use flowkv::FlowKvConfig;
use flowkv_nexmark::{GeneratorConfig, QueryId, QueryParams};

/// Seed whose outputs are committed below. Every run, at any seed, is
/// also checked against an in-memory run of its input.
pub const DEFAULT_SEED: u64 = 1;

/// Query parallelism: one worker per core of the 2-core machine the
/// committed numbers come from.
pub const PARALLELISM: usize = 2;

/// Tuples between source watermarks (the harnesses' setting).
pub const WATERMARK_INTERVAL: usize = 500;

/// A paced run fails when its last pull comes later than its schedule
/// by more than this share of the scheduled duration.
pub const PACED_LAG_BOUND: f64 = 0.10;

/// Output of a workload at [`DEFAULT_SEED`].
#[derive(Clone, Copy, Debug)]
pub struct Reference {
    /// Number of output rows.
    pub outputs: u64,
    /// CRC32 of the sorted output rows (see `stats::output_crc`).
    pub crc32: u32,
}

/// One benchmark workload.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The NEXMark query.
    pub query: QueryId,
    /// Window length; session gaps are a tenth of it.
    pub window_ms: i64,
    /// Source events per job run.
    pub events: u64,
    /// FlowKV write buffer, small enough that the state spills to disk.
    pub write_buffer: usize,
    /// Background I/O ring threads per store.
    pub io_threads: usize,
    /// Hot-tier budget per partition when FlowKV runs inside `TieredStore`.
    pub tier_hot_bytes: Option<usize>,
    /// Publish state snapshots and drive the serve client.
    pub serve: bool,
    /// Round trips per second the serve client sends: half the rate one
    /// closed-loop connection reached during unpaced ingest, as measured
    /// when the workload was defined (`--lookup-rate 0`). 0 without a
    /// client.
    pub lookup_rate: u64,
    /// Source rate of the paced run, events per second: about a quarter
    /// of the unpaced rate for window workloads and half for
    /// `q12-serve`, as measured when the workload was defined. At half
    /// the rate, window latency moved too much between runs.
    pub paced_rate: u64,
    /// Committed output at [`DEFAULT_SEED`].
    pub reference: Reference,
}

impl Workload {
    /// Generator settings for `seed`.
    pub fn generator(&self, seed: u64) -> GeneratorConfig {
        flowkv_bench::workload(self.events, seed)
    }

    /// Query parameters.
    pub fn params(&self) -> QueryParams {
        QueryParams::new(self.window_ms).with_parallelism(PARALLELISM)
    }

    /// FlowKV configuration.
    pub fn flowkv(&self) -> FlowKvConfig {
        flowkv_bench::flowkv_cfg().with_write_buffer_bytes(self.write_buffer)
    }

    /// Job and operator name under which `q12-serve` publishes state.
    pub fn served_state(&self) -> (&'static str, &'static str) {
        ("q12", "count-global")
    }

    /// Scheduled length of the paced run in seconds.
    pub fn paced_seconds(&self) -> f64 {
        self.events as f64 / self.paced_rate as f64
    }
}

/// Every workload, in `BENCHMARK.json` order.
pub fn all() -> Vec<Workload> {
    vec![
        Workload {
            name: "q7-aar",
            query: QueryId::Q7,
            window_ms: 300,
            events: 300_000,
            write_buffer: 64 << 10,
            io_threads: 0,
            tier_hot_bytes: None,
            serve: false,
            lookup_rate: 0,
            paced_rate: 100_000,
            reference: Reference {
                outputs: 143477,
                crc32: 0x8b15f780,
            },
        },
        Workload {
            name: "q11median-aur",
            query: QueryId::Q11Median,
            window_ms: 3_000,
            events: 100_000,
            write_buffer: 64 << 10,
            io_threads: 2,
            tier_hot_bytes: None,
            serve: false,
            lookup_rate: 0,
            paced_rate: 12_000,
            reference: Reference {
                outputs: 24245,
                crc32: 0xc92810ec,
            },
        },
        Workload {
            name: "q11median-tiered",
            query: QueryId::Q11Median,
            window_ms: 3_000,
            events: 100_000,
            write_buffer: 64 << 10,
            io_threads: 0,
            tier_hot_bytes: Some(16 << 10),
            serve: false,
            lookup_rate: 0,
            paced_rate: 18_000,
            reference: Reference {
                outputs: 24245,
                crc32: 0xc92810ec,
            },
        },
        Workload {
            name: "q12-serve",
            query: QueryId::Q12,
            window_ms: 1_000,
            events: 300_000,
            write_buffer: flowkv_bench::HARNESS_BUFFER,
            io_threads: 0,
            tier_hot_bytes: None,
            serve: true,
            lookup_rate: 3_500,
            paced_rate: 150_000,
            reference: Reference {
                outputs: 2000,
                crc32: 0x9a753692,
            },
        },
    ]
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all().into_iter().find(|w| w.name == name)
}
