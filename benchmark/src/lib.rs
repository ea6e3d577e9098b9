//! End-to-end benchmark of triad.
//!
//! Two closed-loop workloads with one client each drive the program
//! through its public functions only, time every layer from outside by
//! timing those calls, and check every verdict (see `README.md`). A run
//! with tracing off reports the end-to-end metrics; a traced run
//! reports the per-layer metrics through the decorators of [`trace`].

pub mod check;
pub mod measure;
pub mod trace;
pub mod workloads;

use check::Gate;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The workloads, by name.
pub const WORKLOADS: [&str; 2] = ["sessions-mix", "serve-loopback"];

/// End-to-end metrics (name, unit), reported with tracing off. The
/// median latency and the query rate are printed but not among them: on
/// a shared host a run's samples fall into a fast and a slow mode that
/// last seconds, and the share of a run each mode held changed from run
/// to run. The tail sits in the slow mode (see `README.md`).
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mib", "MiB"),
    ("bits_per_query", "bit"),
    ("success_ratio", "ratio"),
];

/// The unrestricted tester's phases, as its runtime names them.
pub const PHASES: [&str; 6] = [
    "unphased",
    "estimate-degree",
    "approx-degree",
    "find-candidates",
    "sample-edges",
    "close-triangle",
];

/// Per-layer metrics (name, unit), reported by traced runs. A layer a
/// workload never calls reads 0 there.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("graph.store.write_s", "s"),
    ("graph.store.open_ms", "ms"),
    ("graph.store.file_bytes", "bytes"),
    ("graph.store.owned_bytes", "bytes"),
    ("graph.store.mapped", "bool"),
    ("graph.partition.ms", "ms"),
    ("graph.partition.rss_delta_mib", "MiB"),
    ("comm.player.prepare_ms", "ms"),
    ("comm.player.prepare_rss_delta_mib", "MiB"),
    ("protocols.simultaneous.message_ms", "ms"),
    ("protocols.simultaneous.referee_ms", "ms"),
    ("protocols.unrestricted.phase_ms.unphased", "ms"),
    ("protocols.unrestricted.phase_ms.estimate-degree", "ms"),
    ("protocols.unrestricted.phase_ms.approx-degree", "ms"),
    ("protocols.unrestricted.phase_ms.find-candidates", "ms"),
    ("protocols.unrestricted.phase_ms.sample-edges", "ms"),
    ("protocols.unrestricted.phase_ms.close-triangle", "ms"),
    ("protocols.amplify.reps_run", "count"),
    ("protocols.amplify.reps_budget", "count"),
    ("protocols.amplify.run_ratio", "ratio"),
    ("comm.runtime.rounds", "count"),
    ("comm.runtime.messages", "count"),
    ("comm.runtime.bits", "bit"),
    ("comm.scheduler.cache_hits", "count"),
    ("comm.scheduler.cache_misses", "count"),
    ("comm.scheduler.overhead_ratio", "ratio"),
    ("comm.tcp.deliveries", "count"),
    ("comm.tcp.deliver_p50_us", "us"),
    ("comm.tcp.deliver_p99_us", "us"),
    ("comm.wire.frames", "count"),
    ("comm.wire.bytes", "bytes"),
    ("comm.wire.encode_us", "us"),
    ("comm.wire.decode_us", "us"),
    ("comm.daemon.census_ms", "ms"),
    ("comm.daemon.adopt_ms", "ms"),
    ("comm.pool.workers", "count"),
    ("env.nproc", "count"),
    ("query.latency_ms", "ms"),
    ("query.untraced_latency_ms", "ms"),
    ("query.inprocess_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.span_coverage", "ratio"),
];

/// Times each workload repeats its set-up and its warm-up sample;
/// `setup_s` is the median set-up plus the median warm-up.
pub const SETUP_REPS: usize = 3;

/// How a run is asked for on the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    /// Seed every input is generated from.
    pub seed: u64,
    /// How long the timed samples run, in seconds.
    pub seconds: f64,
    /// Report per-layer metrics from a traced run.
    pub trace: bool,
}

/// The seed of sample `i` of a run seeded with `seed`.
pub fn sample_seed(seed: u64, i: u64) -> u64 {
    triad_comm::mix64(triad_comm::mix64(seed) ^ i)
}

/// Directory for generated inputs, inside the working directory.
pub fn data_dir() -> std::path::PathBuf {
    std::path::PathBuf::from(".bench_data")
}

/// What a sample of [`drive`] is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Checked, then discarded; its time counts as set-up.
    Warmup,
    /// Timed with tracing off.
    Timed,
    /// Timed through the trace decorators.
    Traced,
}

/// What [`drive`] measured around the samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Driven {
    /// Median warm-up time, in seconds.
    pub warmup_s: f64,
    /// Wall time from the start of the first timed sample to the end of
    /// the last, in seconds.
    pub window_s: f64,
    /// Timed samples completed in that window, traced or not.
    pub samples: u64,
}

/// Runs samples `0..SETUP_REPS` as discarded warm-ups, then timed
/// samples until `opts.seconds` have passed. In a traced run every
/// second timed sample is traced, so traced and untraced samples run
/// under the same conditions; at least one of each runs.
pub fn drive(opts: &Options, mut sample: impl FnMut(u64, Role)) -> Driven {
    let warmups: Vec<f64> = (0..SETUP_REPS as u64)
        .map(|i| measure::timed(|| sample(i, Role::Warmup)).1.as_secs_f64())
        .collect();
    let start = Instant::now();
    let min = if opts.trace { 2 } else { 1 };
    let mut timed = 0;
    while timed < min || start.elapsed().as_secs_f64() < opts.seconds {
        let role = if opts.trace && timed % 2 == 1 {
            Role::Traced
        } else {
            Role::Timed
        };
        sample(SETUP_REPS as u64 + timed, role);
        timed += 1;
    }
    Driven {
        warmup_s: measure::median(&warmups),
        window_s: start.elapsed().as_secs_f64(),
        samples: timed,
    }
}

/// Per-layer values: one entry per traced sample (reported as the
/// median), or one value set for the whole run.
#[derive(Debug, Default)]
pub struct Layers {
    values: BTreeMap<String, Vec<f64>>,
}

impl Layers {
    /// Adds one traced sample's value of `name`.
    pub fn push(&mut self, name: &str, value: f64) {
        self.values.entry(name.to_string()).or_default().push(value);
    }

    /// Sets `name` to a value measured once for the run.
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), vec![value]);
    }

    /// Adds one traced sample's wall time per unrestricted-tester phase
    /// of [`PHASES`] (0 when the sample never entered it). Returns the
    /// sample's total time in those phases.
    pub fn push_phases(&mut self, spent: &[(&'static str, Duration)]) -> Duration {
        let mut total = Duration::ZERO;
        for phase in PHASES {
            let d = spent
                .iter()
                .filter(|(p, _)| *p == phase)
                .map(|(_, d)| *d)
                .sum();
            self.push(
                &format!("protocols.unrestricted.phase_ms.{phase}"),
                measure::ms(d),
            );
            total += d;
        }
        total
    }

    /// The reported value of `name`, if any was recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).map(|v| measure::median(v))
    }
}

/// What the untimed bookkeeping of a run adds up to for the end-to-end
/// metrics.
#[derive(Debug, Default)]
pub struct E2e {
    /// Median set-up time plus the warm-up sample.
    pub setup_s: f64,
    /// Latency of each untraced timed sample.
    pub latencies_ms: Vec<f64>,
    /// Queries per sample: one, or the sessions of a batch.
    pub per_sample: u64,
    /// Total bits of the untraced samples' queries.
    pub bits: u64,
    /// The timed window every sample ran in.
    pub driven: Driven,
}

/// One finished run: the gate's counts and the metrics to print.
#[derive(Debug)]
pub struct Report {
    /// Workload name.
    pub workload: &'static str,
    /// Whether this was the traced run.
    pub trace: bool,
    /// Correctness counts.
    pub gate: Gate,
    /// (name, value, unit), in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Human-readable lines printed before the result.
    pub notes: Vec<String>,
}

impl Report {
    /// Assembles the report: the end-to-end metrics for an untraced run,
    /// the per-layer metrics for a traced one. Both kinds of run print
    /// the environment and the end-to-end figures as notes.
    pub fn new(
        workload: &'static str,
        opts: &Options,
        gate: Gate,
        e2e: &E2e,
        layers: &Layers,
        mut notes: Vec<String>,
    ) -> Report {
        let lat = measure::summarize(&e2e.latencies_ms);
        let queries = e2e.per_sample * e2e.latencies_ms.len() as u64;
        let completed = e2e.per_sample * e2e.driven.samples;
        let rate = |q: f64, s: f64| if s > 0.0 { q / s } else { 0.0 };
        let end_to_end = [
            e2e.setup_s,
            lat.tail,
            measure::peak_rss_mib(),
            rate(e2e.bits as f64, queries as f64),
            1.0 - gate.fail_ratio(),
        ];
        notes.insert(
            0,
            format!(
                "env: nproc={} profile={} commit={}",
                measure::nproc(),
                measure::profile(),
                measure::commit()
            ),
        );
        notes.push(format!(
            "latency: {} timed samples, median {} ms; latency_tail_ms is p{}{}",
            lat.count,
            lat.p50,
            lat.tail_pct,
            if lat.tail_pct == 50 {
                " (the median: too few samples for a percentile above it with ten beyond it)"
            } else {
                ""
            }
        ));
        let mut throughput = format!(
            "throughput: {completed} queries completed in a {:.3} s window",
            e2e.driven.window_s
        );
        if !opts.trace {
            // The closed loop's real rate, checks and clean-up between
            // samples included. A traced window also holds the traced
            // samples, so its rate is no end-to-end figure.
            let qps = rate(completed as f64, e2e.driven.window_s);
            throughput.push_str(&format!(", {qps} queries/s"));
        }
        notes.push(throughput);
        notes.push(format!(
            "gate: {} attempted, {} failed, fail_ratio={}",
            gate.attempted,
            gate.failed,
            gate.fail_ratio()
        ));
        let metrics = if opts.trace {
            for ((name, unit), v) in END_TO_END.iter().zip(end_to_end) {
                notes.push(format!("untraced {name} = {v} {unit}"));
            }
            PER_LAYER
                .iter()
                .map(|&(name, unit)| {
                    let v = layers.get(name).unwrap_or(0.0);
                    (name.to_string(), v, unit)
                })
                .collect()
        } else {
            END_TO_END
                .iter()
                .zip(end_to_end)
                .map(|(&(name, unit), v)| (name.to_string(), v, unit))
                .collect()
        };
        Report {
            workload,
            trace: opts.trace,
            gate,
            metrics,
            notes,
        }
    }

    /// The value of metric `name`, if reported.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, v, _)| v)
    }

    /// The one-line JSON result.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, v, unit)| {
                let v = if v.is_finite() { *v } else { 0.0 };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.gate.failed == 0,
            self.gate.attempted,
            self.gate.failed,
            metrics.join(", ")
        )
    }

    /// Every line to print: the notes, each metric with its unit, and
    /// the JSON result last.
    pub fn render(&self) -> String {
        let mut out = format!(
            "workload {} ({})\n",
            self.workload,
            if self.trace { "traced" } else { "untraced" }
        );
        for note in &self.notes {
            out.push_str(&format!("  {note}\n"));
        }
        for line in &self.gate.messages {
            out.push_str(&format!("  {line}\n"));
        }
        for (name, v, unit) in &self.metrics {
            out.push_str(&format!("  {name} = {v} {unit}\n"));
        }
        out.push_str(&self.json());
        out.push('\n');
        out
    }
}

/// Runs workload `name`.
///
/// # Errors
///
/// An unknown workload name, or a set-up step that failed before any
/// sample could run.
pub fn run(name: &str, opts: &Options) -> Result<Report, String> {
    match name {
        "sessions-mix" => workloads::sessions::run(&workloads::sessions::Params::FULL, opts),
        "serve-loopback" => workloads::serve::run(&workloads::serve::Params::FULL, opts),
        other => Err(format!(
            "unknown workload `{other}` (expected one of {})",
            WORKLOADS.join(", ")
        )),
    }
}
