//! One job run: the store stack for a workload, the run itself, and what
//! was measured around it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use flowkv::{FlowKvFactory, TierConfig, TieredFactory};
use flowkv_common::backend::StateBackendFactory;
use flowkv_common::registry::StateRegistry;
use flowkv_common::types::Tuple;
use flowkv_common::vfs::{StdVfs, Vfs};
use flowkv_serve::StateServer;
use flowkv_spe::{run_job, BackendChoice, FactoryOptions, JobResult, RunOptions};

use crate::procstat::{CpuByGroup, Sampler};
use crate::recorder::{Layer, Recorder};
use crate::serve_load::{Client, LoadStats};
use crate::source::{Source, SourceStats};
use crate::stats;
use crate::workloads::{Workload, PARALLELISM, WATERMARK_INTERVAL};
use crate::wrap::{CountingVfs, TimingFactory};

/// A job slower than this is aborted and counted as failed.
const JOB_TIMEOUT: Duration = Duration::from_secs(60);

/// Which store the job runs on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Store {
    /// FlowKV (inside `TieredStore` when the workload asks for it).
    FlowKv,
    /// The LSM baseline, for the ungated reference run.
    Lsm,
    /// The in-memory store: the reference for outputs at any seed.
    InMemory,
}

impl Store {
    /// Parses a `--store` value (the in-memory store is internal).
    pub fn parse(s: &str) -> Option<Store> {
        match s {
            "flowkv" => Some(Store::FlowKv),
            "lsm" => Some(Store::Lsm),
            _ => None,
        }
    }

    /// The `--store` value.
    pub fn name(self) -> &'static str {
        match self {
            Store::FlowKv => "flowkv",
            Store::Lsm => "lsm",
            Store::InMemory => "in-memory",
        }
    }
}

/// Everything set up once per benchmark run and shared by its jobs.
pub struct Env {
    pub workload: Workload,
    pub seed: u64,
    pub store: Store,
    /// The generated input; each job gets a copy made before timing.
    pub input: Vec<Tuple>,
    /// Keys the serve client looks up (the input's bidders).
    pub keys: Arc<Vec<Vec<u8>>>,
    /// Directory under which each job gets a fresh data dir.
    pub data_root: PathBuf,
    pub registry: Option<Arc<StateRegistry>>,
    pub server: Option<StateServer>,
}

impl Env {
    /// Generates the input and prepares the data dir and state server.
    pub fn new(
        workload: &Workload,
        seed: u64,
        store: Store,
        data_root: &Path,
    ) -> std::io::Result<Env> {
        let input: Vec<Tuple> = flowkv_nexmark::EventGenerator::new(workload.generator(seed))
            .tuples()
            .collect();
        let mut keys: Vec<Vec<u8>> = Vec::new();
        if workload.serve {
            let mut bidders: Vec<u64> = input
                .iter()
                .filter_map(|t| flowkv_nexmark::Event::decode_bid(&t.value).ok().flatten())
                .map(|bid| bid.bidder)
                .collect();
            bidders.sort_unstable();
            bidders.dedup();
            keys = bidders.iter().map(|b| b.to_le_bytes().to_vec()).collect();
        }
        if data_root.exists() {
            std::fs::remove_dir_all(data_root)?;
        }
        std::fs::create_dir_all(data_root)?;
        let (registry, server) = if workload.serve && store != Store::InMemory {
            let registry = StateRegistry::new_shared();
            let server = flowkv_serve::ServerBuilder::new("127.0.0.1:0", Arc::clone(&registry))
                .spawn()
                .map_err(|e| std::io::Error::other(e.to_string()))?;
            (Some(registry), Some(server))
        } else {
            (None, None)
        };
        Ok(Env {
            workload: workload.clone(),
            seed,
            store,
            input,
            keys: Arc::new(keys),
            data_root: data_root.to_path_buf(),
            registry,
            server,
        })
    }

    /// The store stack for one job. Untraced: the plain factory on
    /// `StdVfs`. Traced: a timing wrapper outside, a counting Vfs under
    /// every store, and for the tiered workload a second timing wrapper
    /// between `TieredStore` and its hot FlowKV store.
    fn factory(&self, rec: Option<&Arc<Recorder>>) -> Arc<dyn StateBackendFactory> {
        let wl = &self.workload;
        let vfs: Arc<dyn Vfs> = match rec {
            Some(rec) => Arc::new(CountingVfs::new(StdVfs::shared(), Arc::clone(rec))),
            None => StdVfs::shared(),
        };
        let time = |inner: Arc<dyn StateBackendFactory>, layer| -> Arc<dyn StateBackendFactory> {
            match rec {
                Some(rec) => Arc::new(TimingFactory::new(inner, Arc::clone(rec), layer)),
                None => inner,
            }
        };
        let store: Arc<dyn StateBackendFactory> = match self.store {
            Store::FlowKv => Arc::new(FlowKvFactory::new(wl.flowkv()).with_vfs(Arc::clone(&vfs))),
            Store::Lsm => BackendChoice::Lsm(flowkv_bench::lsm_cfg())
                .build(FactoryOptions::new().vfs(Arc::clone(&vfs))),
            Store::InMemory => BackendChoice::InMemory {
                budget_per_partition: usize::MAX / 4,
            }
            .build(FactoryOptions::new()),
        };
        match wl.tier_hot_bytes {
            Some(hot) if self.store != Store::InMemory => {
                let tiered = TieredFactory::new(time(store, Layer::Inner), TierConfig::new(hot))
                    .with_vfs(vfs);
                time(Arc::new(tiered), Layer::Outer)
            }
            _ => time(store, Layer::Outer),
        }
    }
}

/// What one job run produced and what was measured around it.
pub struct JobRun {
    pub result: Result<JobResult, String>,
    /// Wall time of `run_job`, seconds.
    pub wall: f64,
    pub crc: u32,
    pub outputs: u64,
    pub firings: u64,
    pub source: SourceStats,
    /// Peak bytes under the job's data dir.
    pub disk_peak: u64,
    /// Thread CPU by group (traced runs only).
    pub cpu: Option<CpuByGroup>,
    /// Serve-client results (`q12-serve` only).
    pub load: Option<LoadStats>,
}

impl JobRun {
    /// Source events per second of wall time.
    pub fn throughput(&self) -> f64 {
        self.source.pulls as f64 / self.wall
    }
}

/// Runs the workload's job once over `input`, a fresh copy of
/// `env.input` made by the caller.
pub fn run(
    env: &Env,
    input: Vec<Tuple>,
    sampler: &Sampler,
    paced: bool,
    rec: Option<&Arc<Recorder>>,
    index: usize,
) -> JobRun {
    let wl = &env.workload;
    let dir = env.data_root.join(format!("job-{index}"));
    let (source, source_stats) = Source::new(input, paced.then_some(wl.paced_rate), rec.is_some());
    let mut opts = RunOptions::new(&dir);
    opts.watermark_interval = WATERMARK_INTERVAL;
    opts.collect_outputs = true;
    opts.record_latency = paced;
    opts.timeout = Some(JOB_TIMEOUT);
    opts.io_threads = if env.store == Store::InMemory {
        0
    } else {
        wl.io_threads
    };
    opts.registry = env.registry.clone();
    let job = wl.query.build(wl.params());
    let factory = env.factory(rec);

    let cpu_before = rec.map(|_| sampler.thread_cpu());
    sampler.begin(&dir);
    let client = env.server.as_ref().map(|server| {
        Client::start(
            server.local_addr(),
            wl.served_state(),
            Arc::clone(&env.keys),
            (wl.lookup_rate > 0).then_some(wl.lookup_rate),
            env.seed,
            rec.cloned(),
        )
    });
    let started = Instant::now();
    let mut result = run_job(&job, source, factory, &opts).map_err(|e| e.to_string());
    let wall = started.elapsed().as_secs_f64();
    let load = client.map(Client::finish);
    // The next run's client must wait for, and read, its own job's
    // snapshots rather than this job's last ones.
    if let Some(registry) = &env.registry {
        for state in registry.list() {
            registry.remove(&state.key);
        }
    }
    let disk_peak = sampler.end();
    let cpu = cpu_before.map(|before| sampler.thread_cpu().since(&before));
    let _ = std::fs::remove_dir_all(&dir);

    let source = source_stats
        .lock()
        .expect("source stats lock poisoned")
        .take()
        .unwrap_or_default();
    // Keep the checksum, not the rows.
    let (crc, outputs, firings) = match &mut result {
        Ok(r) => {
            let rows = std::mem::take(&mut r.outputs);
            (
                stats::output_crc(&rows),
                r.output_count,
                stats::firings(&rows, PARALLELISM),
            )
        }
        Err(_) => (0, 0, 0),
    };
    JobRun {
        result,
        wall,
        crc,
        outputs,
        firings,
        source,
        disk_peak,
        cpu,
        load,
    }
}
