//! `sessions-mix`: one sample is one `SessionBatch::run` of sessions
//! that cycle through four inputs (two bipartite, two planted ε-far) and
//! four testers (unrestricted, sim-low, sim-high, exact) on a pool of
//! `nproc` workers. The set-up writes each input with the streaming CSR
//! writer, opens it with `CsrStore::open` and partitions it over the
//! store, which gives the store's layer figures.
//!
//! A traced sample runs the same batch, then runs each session again on
//! its own through `run_amplified_prepared` (the denominator of the
//! scheduler's overhead ratio), then replays each session's repetitions
//! through the trace decorators for the per-layer protocol times. Both
//! re-runs must reproduce the batch's verdict and `CommStats` exactly.

use crate::check::{self, Expect, Gate};
use crate::measure::{self, ms, timed};
use crate::trace::{add, PhaseClock, TimedSim};
use crate::{drive, sample_seed, E2e, Layers, Options, Report, Role, SETUP_REPS};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use triad_comm::{
    run_simultaneous_prepared, CommStats, CostModel, Pool, Runtime, SharedRandomness,
    SimultaneousProtocol, Tally,
};
use triad_graph::generators::far_graph;
use triad_graph::partition::{random_disjoint, Partition};
use triad_graph::store::write_csr;
use triad_graph::{CsrStore, Edge, Graph, GraphBuilder, Triangle, VertexId};
use triad_protocols::amplify::{rep_seed, run_amplified_prepared};
use triad_protocols::baseline::SendEverything;
use triad_protocols::simultaneous::{AlgHigh, AlgLow};
use triad_protocols::{
    PreparedInput, SessionBatch, SessionSpec, SessionTester, SimProtocolKind, SimultaneousTester,
    TestOutcome, Tuning, UnrestrictedTester,
};

/// The batch geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Vertices per input.
    pub n: usize,
    /// Average degree per input.
    pub d: f64,
    /// Distance of the far inputs from triangle-freeness.
    pub eps: f64,
    /// Players per input.
    pub k: usize,
    /// Sessions per batch.
    pub sessions: usize,
    /// Amplification repetitions per session.
    pub reps: u32,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 6_000,
        d: 8.0,
        eps: 0.2,
        k: 4,
        sessions: 64,
        reps: 8,
    };
    /// A size for testing the benchmark itself.
    pub const TINY: Params = Params {
        n: 600,
        sessions: 16,
        reps: 2,
        ..Params::FULL
    };
}

/// The testers the sessions cycle through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Unrestricted,
    Low,
    High,
    Exact,
}

const KINDS: [Kind; 4] = [Kind::Unrestricted, Kind::Low, Kind::High, Kind::Exact];

/// Distinct inputs the sessions cycle through; even ones are bipartite.
const INPUTS: usize = 4;

/// One input with what it promises.
struct Input {
    g: Graph,
    parts: Partition,
    expect: Expect,
}

impl Input {
    fn tester(&self, kind: Kind, eps: f64) -> SessionTester {
        let tuning = Tuning::practical(eps);
        let d = self.g.average_degree();
        match kind {
            Kind::Unrestricted => SessionTester::Unrestricted(UnrestrictedTester::new(tuning)),
            Kind::Low => SessionTester::Simultaneous(SimultaneousTester::new(
                tuning,
                SimProtocolKind::Low { avg_degree: d },
            )),
            Kind::High => SessionTester::Simultaneous(SimultaneousTester::new(
                tuning,
                SimProtocolKind::High { avg_degree: d },
            )),
            Kind::Exact => SessionTester::Exact(SendEverything::default()),
        }
    }
}

/// A random bipartite (so triangle-free) graph with about `n·d/2`
/// edges between the two halves.
pub fn bipartite<R: Rng>(n: usize, d: f64, rng: &mut R) -> Graph {
    let half = (n / 2) as u32;
    let mut b = GraphBuilder::new(n);
    for _ in 0..(n as f64 * d / 2.0) as usize {
        let u = rng.gen_range(0..half);
        let v = rng.gen_range(half..n as u32);
        b.add_edge(Edge::new(VertexId(u), VertexId(v)));
    }
    b.build()
}

/// Removes a generated input file when dropped, however the run ends.
struct TempFile(PathBuf);

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// What building the inputs through the store measured, summed over
/// the inputs.
#[derive(Debug, Default)]
struct Built {
    write: Duration,
    open: Duration,
    partition: Duration,
    partition_rss_mib: f64,
    file_bytes: u64,
    owned_bytes: usize,
    mapped: bool,
}

/// Generates the inputs the way `triad gen --format csr` and
/// `triad test --graph-file` meet them: each graph is written with the
/// streaming CSR writer, opened with `CsrStore::open`, partitioned over
/// the store, and materialised for the batch, which borrows graphs.
fn inputs(p: &Params, seed: u64) -> Result<(Vec<Input>, Built), String> {
    let dir = crate::data_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let mut built = Built {
        mapped: true,
        ..Built::default()
    };
    let mut out = Vec::with_capacity(INPUTS);
    for i in 0..INPUTS {
        let mut rng = ChaCha8Rng::seed_from_u64(sample_seed(seed, 1 << 32 | i as u64));
        let (g, expect) = if i % 2 == 0 {
            (bipartite(p.n, p.d, &mut rng), Expect::Accepted)
        } else {
            let g = far_graph(p.n, p.d, p.eps, &mut rng).map_err(|e| format!("planting: {e}"))?;
            (g, Expect::Found)
        };
        let file = TempFile(dir.join(format!("input-{}-{seed}-{i}.csr", std::process::id())));
        let (written, took) = timed(|| write_csr(&file.0, &g));
        written.map_err(|e| format!("writing {}: {e}", file.0.display()))?;
        built.write += took;
        drop(g);
        let (store, took) = timed(|| CsrStore::open(&file.0));
        let store = store.map_err(|e| format!("opening {}: {e}", file.0.display()))?;
        built.open += took;
        built.file_bytes += store.file_bytes();
        built.owned_bytes += store.owned_bytes();
        built.mapped &= store.mapped();
        let rss = measure::rss_mib();
        let (parts, took) = timed(|| random_disjoint(&store, p.k, &mut rng));
        built.partition_rss_mib += measure::rss_mib() - rss;
        built.partition += took;
        out.push(Input {
            g: store.to_graph(),
            parts,
            expect,
        });
    }
    Ok((out, built))
}

/// Which input, tester and seed session `s` of a batch uses: every
/// tester meets every input.
fn session(s: usize, batch_seed: u64) -> (usize, Kind, u64) {
    (
        s % INPUTS,
        KINDS[(s / INPUTS) % KINDS.len()],
        sample_seed(batch_seed, s as u64),
    )
}

/// What replaying one session through the decorators measured.
#[derive(Default)]
struct Replay {
    stats: CommStats,
    outcome: Option<TestOutcome>,
    reps_run: u32,
    message: Duration,
    referee: Duration,
    phases: Vec<(&'static str, Duration)>,
}

fn replay_sim<P>(proto: P, input: &PreparedInput<'_>, seed: u64, reps: u32) -> Replay
where
    P: SimultaneousProtocol<Output = Option<Triangle>>,
{
    let timed_proto = TimedSim::new(proto);
    let mut out = Replay::default();
    for r in 0..reps.max(1) {
        let run = run_simultaneous_prepared::<_, Tally>(
            &timed_proto,
            input.n(),
            input.players(),
            SharedRandomness::new(rep_seed(seed, r)),
        );
        out.stats = out.stats.merged(run.stats);
        out.reps_run = r + 1;
        out.outcome = Some(TestOutcome::from(run.output));
        if run.output.is_some() {
            break;
        }
    }
    (out.message, out.referee) = timed_proto.spent();
    out
}

fn replay_unrestricted(
    tester: &UnrestrictedTester,
    input: &PreparedInput<'_>,
    seed: u64,
    reps: u32,
) -> Replay {
    let mut out = Replay::default();
    for r in 0..reps.max(1) {
        let mut rt = Runtime::<PhaseClock>::prepared_with(
            input.n(),
            input.shared_players(),
            SharedRandomness::new(rep_seed(seed, r)),
            CostModel::Coordinator,
        );
        let outcome = tester.run_on(&mut rt);
        out.stats = out.stats.merged(rt.stats());
        out.reps_run = r + 1;
        out.outcome = Some(outcome);
        for (phase, d) in rt.into_recorder().finish() {
            add(&mut out.phases, phase, d);
        }
        if outcome.found_triangle() {
            break;
        }
    }
    out
}

fn replay(
    kind: Kind,
    input: &Input,
    prepared: &PreparedInput<'_>,
    eps: f64,
    seed: u64,
    reps: u32,
) -> Replay {
    let tuning = Tuning::practical(eps);
    let d = input.g.average_degree();
    match kind {
        Kind::Unrestricted => {
            replay_unrestricted(&UnrestrictedTester::new(tuning), prepared, seed, reps)
        }
        Kind::Low => replay_sim(AlgLow::new(tuning, d), prepared, seed, reps),
        Kind::High => replay_sim(AlgHigh::new(tuning, d), prepared, seed, reps),
        Kind::Exact => replay_sim(SendEverything::default(), prepared, seed, reps),
    }
}

/// `Ok` when a re-run reproduced the batch's result exactly.
fn same(
    what: &str,
    got: (TestOutcome, CommStats),
    want: (TestOutcome, CommStats),
) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("{what} gave {got:?}, the batch gave {want:?}"))
    }
}

/// The traced part of a sample: standalone runs and decorated replays
/// of every session, checked against the batch's results.
fn trace_batch(
    p: &Params,
    inputs: &[Input],
    batch_seed: u64,
    batch: &[Result<(TestOutcome, CommStats), String>],
    wall: Duration,
    workers: usize,
    layers: &mut Layers,
) -> Vec<Result<(), String>> {
    let mut checks = Vec::with_capacity(batch.len());
    let mut prepared = Vec::with_capacity(inputs.len());
    let mut prepare = Duration::ZERO;
    let rss = measure::rss_mib();
    for input in inputs {
        let (prep, took) = timed(|| PreparedInput::new(&input.g, &input.parts));
        prepare += took;
        match prep {
            Ok(prep) => prepared.push(prep),
            Err(e) => return vec![Err(format!("preparing an input: {e}")); batch.len()],
        }
    }
    let serial = Pool::serial();
    let mut standalone = Duration::ZERO;
    let mut replay_wall = Duration::ZERO;
    let (mut message, mut referee) = (Duration::ZERO, Duration::ZERO);
    let mut phases = Vec::new();
    let (mut reps_run, mut reps_budget) = (0u64, 0u64);
    for (s, result) in batch.iter().enumerate() {
        let (ii, kind, seed) = session(s, batch_seed);
        let input = &inputs[ii];
        let tester = input.tester(kind, p.eps);
        let (alone, took) =
            timed(|| run_amplified_prepared(&serial, &tester, &prepared[ii], p.reps, seed));
        standalone += took;
        let (rep, took) = timed(|| replay(kind, input, &prepared[ii], p.eps, seed, p.reps));
        replay_wall += took;
        message += rep.message;
        referee += rep.referee;
        for &(phase, d) in &rep.phases {
            add(&mut phases, phase, d);
        }
        reps_run += u64::from(rep.reps_run);
        reps_budget += u64::from(p.reps.max(1));
        checks.push(result.clone().and_then(|want| {
            let alone = alone.map_err(|e| format!("standalone run: {e}"))?;
            same("the standalone run", (alone.outcome, alone.stats), want)?;
            let outcome = rep.outcome.ok_or("the replay ran no repetition")?;
            same("the traced replay", (outcome, rep.stats), want)
        }));
    }
    layers.push("comm.player.prepare_ms", ms(prepare));
    layers.push(
        "comm.player.prepare_rss_delta_mib",
        measure::rss_mib() - rss,
    );
    layers.push(
        "comm.scheduler.overhead_ratio",
        wall.as_secs_f64() * workers as f64 / standalone.as_secs_f64(),
    );
    layers.push("protocols.simultaneous.message_ms", ms(message));
    layers.push("protocols.simultaneous.referee_ms", ms(referee));
    let phase_total = layers.push_phases(&phases);
    layers.push("protocols.amplify.reps_run", reps_run as f64);
    layers.push("protocols.amplify.reps_budget", reps_budget as f64);
    layers.push(
        "protocols.amplify.run_ratio",
        reps_run as f64 / reps_budget as f64,
    );
    let spans = message + referee + phase_total;
    layers.push(
        "trace.span_coverage",
        spans.as_secs_f64() / replay_wall.as_secs_f64(),
    );
    checks
}

/// Runs the workload.
///
/// # Errors
///
/// When an input cannot be generated.
pub fn run(p: &Params, opts: &Options) -> Result<Report, String> {
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut generated = None;
    for _ in 0..SETUP_REPS {
        let (made, took) = timed(|| inputs(p, opts.seed));
        let (made, built) = made?;
        setups.push(took.as_secs_f64());
        builds.push(built);
        generated = Some(made);
    }
    let inputs = generated.expect("SETUP_REPS is positive");
    let mut layers = Layers::default();
    let median_of =
        |f: &dyn Fn(&Built) -> f64| measure::median(&builds.iter().map(f).collect::<Vec<_>>());
    layers.set("graph.store.write_s", median_of(&|b| b.write.as_secs_f64()));
    layers.set("graph.store.open_ms", median_of(&|b| ms(b.open)));
    layers.set("graph.partition.ms", median_of(&|b| ms(b.partition)));
    let last = builds.last().expect("SETUP_REPS is positive");
    layers.set("graph.store.file_bytes", last.file_bytes as f64);
    layers.set("graph.store.owned_bytes", last.owned_bytes as f64);
    layers.set("graph.store.mapped", f64::from(u8::from(last.mapped)));
    layers.set(
        "graph.partition.rss_delta_mib",
        builds
            .iter()
            .map(|b| b.partition_rss_mib)
            .fold(0.0, f64::max),
    );
    let mut notes = vec![format!(
        "input: {} sessions x {} reps over {INPUTS} inputs (n={} d={} k={}; even inputs bipartite, odd ones planted eps={}), written to {} bytes of CSR store ({}), testers {KINDS:?}",
        p.sessions,
        p.reps,
        p.n,
        p.d,
        p.k,
        p.eps,
        last.file_bytes,
        if last.mapped { "mapped" } else { "owned" }
    )];

    let pool = Pool::clamped(measure::nproc());
    let mut gate = Gate::default();
    let mut e2e = E2e {
        per_sample: p.sessions as u64,
        ..E2e::default()
    };
    let mut traced_ms = Vec::new();
    let mut found = Vec::new();
    let driven = drive(opts, |i, role| {
        let traced = role == Role::Traced;
        let batch_seed = sample_seed(opts.seed, i);
        let mut batch = SessionBatch::new();
        for s in 0..p.sessions {
            let (ii, kind, seed) = session(s, batch_seed);
            batch.submit(SessionSpec {
                graph: &inputs[ii].g,
                partition: &inputs[ii].parts,
                tester: inputs[ii].tester(kind, p.eps),
                seed,
                reps: p.reps,
            });
        }
        let start = Instant::now();
        let results = batch.run(&pool);
        let wall = start.elapsed();
        let runs: Vec<Result<(TestOutcome, CommStats), String>> = results
            .iter()
            .enumerate()
            .map(|(s, r)| {
                let input = &inputs[session(s, batch_seed).0];
                let run = r.as_ref().map_err(ToString::to_string)?;
                check::verdict(&input.g, input.expect, &run.outcome)?;
                Ok((run.outcome, run.stats))
            })
            .collect();
        let checks = if traced {
            layers.push("comm.scheduler.cache_hits", results.cache_hits as f64);
            layers.push("comm.scheduler.cache_misses", results.cache_misses as f64);
            let sum = runs
                .iter()
                .flatten()
                .fold(CommStats::default(), |acc, (_, s)| CommStats {
                    rounds: acc.rounds + s.rounds,
                    ..acc.merged(*s)
                });
            layers.push("comm.runtime.rounds", sum.rounds as f64);
            layers.push("comm.runtime.messages", sum.messages as f64);
            layers.push("comm.runtime.bits", sum.total_bits as f64);
            layers.push("query.latency_ms", ms(wall));
            trace_batch(
                p,
                &inputs,
                batch_seed,
                &runs,
                wall,
                pool.threads(),
                &mut layers,
            )
        } else {
            runs.iter()
                .map(|r| r.as_ref().map(|_| ()).map_err(Clone::clone))
                .collect()
        };
        for (s, check) in checks.into_iter().enumerate() {
            gate.record(&format!("batch {i} session {s}"), check);
        }
        if role == Role::Warmup {
            return;
        }
        if traced {
            traced_ms.push(ms(wall));
        } else {
            e2e.latencies_ms.push(ms(wall));
            e2e.bits += runs
                .iter()
                .flatten()
                .map(|(_, s)| s.total_bits)
                .sum::<u64>();
            found.push(
                runs.iter()
                    .flatten()
                    .filter(|(o, _)| o.found_triangle())
                    .count() as f64,
            );
        }
    });
    e2e.setup_s = measure::median(&setups) + driven.warmup_s;
    e2e.driven = driven;
    notes.push(format!(
        "setup: inputs {:.3} s (median of {SETUP_REPS}), warm-up batch {:.3} s (median of {SETUP_REPS}); {} workers; median {} of {} sessions found a triangle",
        measure::median(&setups),
        driven.warmup_s,
        pool.threads(),
        measure::median(&found),
        p.sessions
    ));
    super::finish_layers(&mut layers, &e2e, &traced_ms, pool.threads());
    Ok(Report::new(
        "sessions-mix",
        opts,
        gate,
        &e2e,
        &layers,
        notes,
    ))
}
