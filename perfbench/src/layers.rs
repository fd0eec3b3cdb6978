//! Per-layer metrics of a traced run, by module. Every workload reports
//! every metric, so that all result lines have one schema: a layer that
//! did not run reports 0 (no calls, no time, no bytes), and so does a
//! ratio or quantile with nothing to measure.

use std::sync::atomic::Ordering;

use flowkv_common::metrics::MetricsSnapshot;

use crate::job::JobRun;
use crate::recorder::{Method, Recorder};
use crate::report::Metrics;
use crate::workloads::Workload;

fn secs(nanos: u64) -> f64 {
    nanos as f64 / 1e9
}

/// `num / den`, or 0 when there is nothing to divide by.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Fills `m` from the last traced unpaced run (`run`, `rec`) and the
/// traced paced run (`paced`).
pub fn metrics(m: &mut Metrics, wl: &Workload, run: &JobRun, rec: &Recorder, paced: &JobRun) {
    let tiered = wl.tier_hot_bytes.is_some();
    let cpu = run.cpu.unwrap_or_default();
    let vfs = &rec.vfs;
    let load = |c: &std::sync::atomic::AtomicU64| c.load(Ordering::Relaxed);

    // spe: source pulls and worker threads.
    m.put(
        "spe.source.blocked_s",
        run.source.blocked.as_secs_f64(),
        "s",
    );
    m.put(
        "spe.source.lag_p99_ms",
        paced.source.lag.quantile(0.99) as f64 / 1e6,
        "ms",
    );
    let latency = crate::response_latency(paced);
    for (name, q) in [
        ("latency_p50_ms", 0.50),
        ("latency_p90_ms", 0.90),
        ("latency_p99_ms", 0.99),
    ] {
        m.put(name, latency.quantile(q) as f64 / 1e6, "ms");
    }
    m.put("spe.worker.cpu_s", cpu.worker, "s");
    let operator_self = cpu.worker - secs(load(&rec.outer_worker_nanos));
    m.put("spe.operator.self_s", operator_self, "s");

    // flowkv: the StateBackend calls the executor makes.
    for method in Method::ALL.into_iter().filter(|m| *m != Method::Other) {
        let s = rec.method(method);
        let name = method.name();
        m.put(format!("flowkv.{name}.calls"), s.calls() as f64, "count");
        m.put(format!("flowkv.{name}.s"), s.secs(), "s");
        m.put(format!("flowkv.{name}.p99_us"), s.p99_us(), "us");
    }
    let (store_self, tier_self) = if tiered {
        (
            load(&rec.inner_self_nanos),
            Some(load(&rec.outer_self_nanos)),
        )
    } else {
        (load(&rec.outer_self_nanos), None)
    };
    m.put("flowkv.self_s", secs(store_self), "s");
    // A failed job has no store metrics; its failure is in the ledger.
    let sm = run
        .result
        .as_ref()
        .map_or(MetricsSnapshot::default(), |r| r.store_metrics);
    m.put("flowkv.write_s", secs(sm.write_nanos), "s");
    m.put("flowkv.read_s", secs(sm.read_nanos), "s");
    m.put("flowkv.compaction_s", secs(sm.compaction_nanos), "s");
    m.put(
        "flowkv.prefetch_hit_ratio",
        sm.prefetch_hit_ratio().unwrap_or(0.0),
        "ratio",
    );
    m.put(
        "flowkv.prefetch_evictions",
        sm.prefetch_evictions as f64,
        "count",
    );

    // vfs: the counting Vfs under every store.
    let (read_bytes, write_bytes) = (load(&vfs.read_bytes), load(&vfs.write_bytes));
    m.put("vfs.read_ops", load(&vfs.read_ops) as f64, "count");
    m.put("vfs.read_bytes", read_bytes as f64, "B");
    m.put("vfs.write_ops", load(&vfs.write_ops) as f64, "count");
    m.put("vfs.write_bytes", write_bytes as f64, "B");
    m.put("vfs.syncs", load(&vfs.syncs) as f64, "count");
    m.put("vfs.s", secs(load(&vfs.nanos)), "s");
    m.put("vfs.read_amp", ratio(read_bytes, write_bytes), "ratio");
    let appended = load(&rec.append_bytes);
    m.put("vfs.write_amp", ratio(write_bytes, appended), "ratio");
    m.put(
        "vfs.worker_read_ops",
        load(&vfs.worker_read_ops) as f64,
        "count",
    );
    m.put("vfs.worker_read_s", secs(load(&vfs.worker_read_nanos)), "s");
    m.put(
        "vfs.ring_read_ops",
        load(&vfs.ring_read_ops) as f64,
        "count",
    );
    m.put("vfs.ring_read_s", secs(load(&vfs.ring_read_nanos)), "s");

    // ioring: background read threads.
    m.put("ioring.cpu_s", cpu.ring, "s");
    m.put(
        "ioring.read_share",
        ratio(load(&vfs.ring_read_bytes), read_bytes),
        "ratio",
    );

    // tier: TieredStore between the executor and the hot store.
    let tier_self = tier_self.unwrap_or(0);
    m.put("tier.self_s", secs(tier_self), "s");
    m.put("tier.inner_calls", rec.inner.calls() as f64, "count");
    m.put(
        "tier.cold_write_bytes",
        load(&vfs.tier_write_bytes) as f64,
        "B",
    );
    m.put(
        "tier.cold_read_bytes",
        load(&vfs.tier_read_bytes) as f64,
        "B",
    );

    // serve: the client's view, measured in the paced run.
    let client = paced.load.clone().unwrap_or_default();
    m.put(
        "lookup_p50_us",
        client.all.quantile(0.50) as f64 / 1e3,
        "us",
    );
    m.put(
        "lookup_p99_us",
        client.all.quantile(0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "serve.point.p99_us",
        client.point.quantile(0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "serve.many.p99_us",
        client.many.quantile(0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "serve.scan.p99_us",
        client.scan.quantile(0.99) as f64 / 1e3,
        "us",
    );
    m.put(
        "serve.send_lag_p99_ms",
        client.send_lag.quantile(0.99) as f64 / 1e6,
        "ms",
    );
    m.put("serve.core_cpu_s", cpu.serve_core, "s");

    // Attribution: how much of worker CPU the layer self times explain.
    let explained = secs(store_self) + secs(tier_self) + secs(load(&vfs.nanos)) + operator_self;
    let residual = if cpu.worker > 0.0 {
        (cpu.worker - explained) / cpu.worker
    } else {
        0.0
    };
    m.put("bench.attribution_residual", residual, "ratio");
}
