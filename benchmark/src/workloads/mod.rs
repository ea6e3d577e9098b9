//! The two workloads. Each takes its seed from [`crate::Options`],
//! runs closed loop with one client, and uses at most `nproc` worker
//! threads and connections.

pub mod serve;
pub mod sessions;

use crate::{measure, E2e, Layers};

/// Sets the layer values every workload reports the same way: the pool
/// size, the core count, and the traced latency against the untraced.
fn finish_layers(layers: &mut Layers, e2e: &E2e, traced_ms: &[f64], workers: usize) {
    let untraced = measure::median(&e2e.latencies_ms);
    layers.set("comm.pool.workers", workers as f64);
    layers.set("env.nproc", measure::nproc() as f64);
    layers.set("query.untraced_latency_ms", untraced);
    if !traced_ms.is_empty() && untraced > 0.0 {
        layers.set(
            "trace.overhead_ratio",
            measure::median(traced_ms) / untraced,
        );
    }
}
