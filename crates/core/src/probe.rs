//! Prefetch-accuracy telemetry shared by the AUR and AAR stores.
//!
//! The Zapridou & Ailamaki framing: a prefetch is only useful when it is
//! both *timely* (completes before the window fires) and *accurate* (the
//! data is still what the trigger needs). These families measure exactly
//! that, per store instance:
//!
//! - `prefetch_issued_total{store=…}` — windows submitted to the ring;
//! - `prefetch_hits_total{store=…}` — reads served from prefetched state;
//! - `prefetch_late_total{store=…}` — prefetches that completed after
//!   their window was consumed, or whose window fired while the read was
//!   still in flight (the foreground fell back to a synchronous read);
//! - `prefetch_wasted_bytes{store=…}` — bytes loaded in the background
//!   and then discarded because validation failed (the store compacted,
//!   restored, or appended under the in-flight read);
//! - `prefetch_timeliness_ms{store=…}` — histogram of the ETT
//!   predicted-vs-actual absolute error on prefetch-served reads: how
//!   much slack (or deficit) the predictor gave the scheduler;
//! - `prefetch_selections_total{store=…}` — passes over the store's
//!   live windows choosing what to prefetch. AUR runs one only when its
//!   answer can have changed (DESIGN §11); AAR runs one per tick.

use std::sync::Arc;

use flowkv_common::error::StoreError;
use flowkv_common::telemetry::{Counter, Histogram, Telemetry};

/// Adapts a [`StoreError`] for transport through a ring job's
/// `io::Result` (background closures cannot return `StoreError`
/// directly; the foreground re-wraps with path context on receipt).
pub(crate) fn ring_err(e: StoreError) -> std::io::Error {
    std::io::Error::other(e.to_string())
}

/// Registry handles for one store instance's prefetch accounting,
/// resolved once at store open.
pub struct PrefetchProbe {
    /// Windows submitted to the background ring.
    pub issued: Arc<Counter>,
    /// Reads served from prefetched state.
    pub hits: Arc<Counter>,
    /// Prefetches that lost the race with their window's trigger.
    pub late: Arc<Counter>,
    /// Background bytes read and then discarded by validation.
    pub wasted_bytes: Arc<Counter>,
    /// ETT |actual − predicted| (ms) on prefetch-served reads.
    pub timeliness_ms: Arc<Histogram>,
    /// Selection passes choosing what to prefetch.
    pub selections: Arc<Counter>,
}

impl PrefetchProbe {
    /// Resolves the probe's metric families, labelled `{store=tag}`.
    pub fn new(telemetry: &Telemetry, tag: &str) -> Self {
        let registry = telemetry.registry();
        PrefetchProbe {
            issued: registry.counter(&format!("prefetch_issued_total{{store={tag}}}")),
            hits: registry.counter(&format!("prefetch_hits_total{{store={tag}}}")),
            late: registry.counter(&format!("prefetch_late_total{{store={tag}}}")),
            wasted_bytes: registry.counter(&format!("prefetch_wasted_bytes{{store={tag}}}")),
            timeliness_ms: registry.histogram(&format!("prefetch_timeliness_ms{{store={tag}}}")),
            selections: registry.counter(&format!("prefetch_selections_total{{store={tag}}}")),
        }
    }
}
