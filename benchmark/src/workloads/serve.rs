//! `serve-loopback`: `k` player threads hold loopback connections to one
//! `TcpCoordinator`, registered once; the unrestricted tester runs over
//! that persistent registration. One sample is one run, reseeded with
//! `adopt_shared`. Every run's verdict and `CommStats` must equal the
//! in-process `run_amplified_prepared` result at the same seed.

use super::sessions::bipartite;
use crate::check::{self, Expect, Gate};
use crate::measure::{self, ms, timed};
use crate::trace::{reencode, DeliveryLog, PhaseClock, TimedTransport, WireCost};
use crate::{drive, sample_seed, E2e, Layers, Options, Report, Role, SETUP_REPS};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use triad_comm::{
    CommStats, ConnectOptions, CostModel, NetError, PlayerSession, PlayerState, Pool, Runtime,
    ServeConfig, ServeSummary, SessionOptions, SharedRandomness, SharedTransport, SimMessage,
    Tally, TcpCoordinator, TcpTransport, Transport,
};
use triad_graph::partition::{random_disjoint, Partition};
use triad_graph::Graph;
use triad_protocols::amplify::{rep_seed, run_amplified_prepared};
use triad_protocols::{PreparedInput, TestOutcome, Tuning, UnrestrictedTester};

/// The input geometry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Params {
    /// Vertices.
    pub n: usize,
    /// Average degree.
    pub d: f64,
    /// Distance parameter the tester is tuned for.
    pub eps: f64,
    /// Players, one loopback connection each.
    pub k: usize,
}

impl Params {
    /// The benchmark's size.
    pub const FULL: Params = Params {
        n: 20_000,
        d: 8.0,
        eps: 0.2,
        k: 2,
    };
    /// A size for testing the benchmark itself.
    pub const TINY: Params = Params {
        n: 600,
        ..Params::FULL
    };
}

/// How long registration and each response may take before the run
/// counts as failed.
const NET_TIMEOUT: Duration = Duration::from_secs(30);

type Player = JoinHandle<Result<ServeSummary, NetError>>;

/// A coordinator with its players registered.
struct Served {
    transport: Arc<Mutex<TcpTransport>>,
    players: Vec<Player>,
}

fn lock(t: &Mutex<TcpTransport>) -> MutexGuard<'_, TcpTransport> {
    t.lock()
        .expect("no thread panics while holding the transport")
}

impl Served {
    /// Says goodbye and joins every player; `Err` names the first
    /// player that did not end cleanly.
    fn close(self) -> Result<(), String> {
        lock(&self.transport).goodbye("benchmark done");
        drop(self.transport);
        let mut result = Ok(());
        for (j, player) in self.players.into_iter().enumerate() {
            let ended = match player.join() {
                Ok(Ok(summary)) if summary.farewell.is_some() => Ok(()),
                Ok(Ok(_)) => Err(format!("player {j} ended without a farewell")),
                Ok(Err(e)) => Err(format!("player {j}: {e}")),
                Err(_) => Err(format!("player {j} panicked")),
            };
            result = result.and(ended);
        }
        result
    }
}

/// Binds a loopback coordinator, starts one thread per share that dials
/// it and serves, and waits for all of them to register. Returns the
/// registration (census) time too.
fn register(parts: &Partition, n: usize, eps: f64) -> Result<(Served, Duration), String> {
    let coordinator =
        TcpCoordinator::bind("127.0.0.1:0").map_err(|e| format!("binding the coordinator: {e}"))?;
    let addr = coordinator
        .local_addr()
        .map_err(|e| format!("reading the coordinator address: {e}"))?;
    let players: Vec<Player> = parts
        .shares()
        .iter()
        .enumerate()
        .map(|(j, share)| {
            let share = share.clone();
            std::thread::spawn(move || {
                let opts = ConnectOptions {
                    slot: Some(j as u32),
                    timeout: NET_TIMEOUT,
                    retries: 5,
                    ..ConnectOptions::default()
                };
                let session = PlayerSession::connect_with(addr, &opts)?;
                let state = PlayerState::new(j, n, &share);
                session.serve(&state, |_, _| SimMessage::empty())
            })
        })
        .collect();
    let cfg = ServeConfig {
        k: parts.players(),
        n,
        seed: 0,
        cost_model: CostModel::Coordinator,
        protocol: "unrestricted".into(),
        params: format!("eps={eps}"),
    };
    let (census, took) =
        timed(|| coordinator.accept_players_with(&cfg, NET_TIMEOUT, &SessionOptions::default()));
    match census {
        Ok(transport) => Ok((
            Served {
                transport: Arc::new(Mutex::new(transport.with_timeout(NET_TIMEOUT))),
                players,
            },
            took,
        )),
        Err(e) => {
            // Players still dialing give up once the listener is gone.
            drop(coordinator);
            for player in players {
                let _ = player.join();
            }
            Err(format!("registering players: {e}"))
        }
    }
}

/// What one served run measured.
struct Run {
    result: Result<(TestOutcome, CommStats), String>,
    latency: Duration,
    /// Each framed delivery's duration (traced runs only).
    deliveries: Vec<Duration>,
}

/// One served run at public seed `shared`; traced runs go through the
/// decorators and record into `layers`.
fn served_run(
    served: &Served,
    tester: &UnrestrictedTester,
    n: usize,
    shared: SharedRandomness,
    layers: Option<&mut Layers>,
) -> Run {
    let start = Instant::now();
    lock(&served.transport).adopt_shared(shared);
    let adopt = start.elapsed();
    let handle = SharedTransport::new(Arc::clone(&served.transport));
    let Some(layers) = layers else {
        let mut rt =
            Runtime::<Tally>::new_with(Box::new(handle), n, shared, CostModel::Coordinator);
        let outcome = tester.run_on(&mut rt);
        let fault = rt.take_fault();
        let latency = start.elapsed();
        return Run {
            result: judge(outcome, fault, rt.stats()),
            latency,
            deliveries: Vec::new(),
        };
    };
    let log = Arc::new(Mutex::new(DeliveryLog::default()));
    let transport = TimedTransport::new(handle, Arc::clone(&log));
    let mut rt =
        Runtime::<PhaseClock>::new_with(Box::new(transport), n, shared, CostModel::Coordinator);
    let outcome = tester.run_on(&mut rt);
    let fault = rt.take_fault();
    let stats = rt.stats();
    let phases = rt.into_recorder().finish();
    let latency = start.elapsed();

    let log = std::mem::take(&mut *log.lock().expect("delivery log is never poisoned"));
    let mut result = judge(outcome, fault, stats);
    let k = lock(&served.transport).k();
    match reencode(&log.exchanges, k, shared.seed()) {
        Ok(WireCost {
            frames,
            bytes,
            encode,
            decode,
        }) => {
            layers.push("comm.wire.frames", frames as f64);
            layers.push("comm.wire.bytes", bytes as f64);
            layers.push(
                "comm.wire.encode_us",
                encode.as_secs_f64() * 1e6 / frames as f64,
            );
            layers.push(
                "comm.wire.decode_us",
                decode.as_secs_f64() * 1e6 / frames as f64,
            );
        }
        Err(e) => result = result.and(Err(e)),
    }
    layers.push("comm.tcp.deliveries", log.times.len() as f64);
    let phase_total = layers.push_phases(&phases);
    layers.push("comm.daemon.adopt_ms", ms(adopt));
    layers.push("comm.runtime.rounds", stats.rounds as f64);
    layers.push("comm.runtime.messages", stats.messages as f64);
    layers.push("comm.runtime.bits", stats.total_bits as f64);
    layers.push("query.latency_ms", ms(latency));
    layers.push(
        "trace.span_coverage",
        (adopt + phase_total).as_secs_f64() / latency.as_secs_f64(),
    );
    Run {
        result,
        latency,
        deliveries: log.times,
    }
}

/// The verdict on a triangle-free input: a fault makes the run
/// inconclusive, which counts as a failure.
fn judge(
    outcome: TestOutcome,
    fault: Option<triad_comm::RunError>,
    stats: CommStats,
) -> Result<(TestOutcome, CommStats), String> {
    match fault {
        Some(e) => Err(format!("inconclusive: {e}")),
        None => Ok((outcome, stats)),
    }
}

/// Runs the workload.
///
/// # Errors
///
/// When the players cannot register.
pub fn run(p: &Params, opts: &Options) -> Result<Report, String> {
    // Coordinator and players share one CPU, so every hand-off is a
    // same-CPU switch. Across the two vCPUs of a virtual machine a
    // wakeup cost about twice the rest of a run, and that cost tracked
    // the host's load, not the code under test.
    let pinned = measure::pin_to_one_cpu();
    let mut setups = Vec::new();
    let mut partitioning = Vec::new();
    let mut census = Vec::new();
    let mut fixture: Option<(Graph, Partition, Served)> = None;
    for _ in 0..SETUP_REPS {
        let start = Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(opts.seed);
        let g = bipartite(p.n, p.d, &mut rng);
        let (parts, part) = timed(|| random_disjoint(&g, p.k, &mut rng));
        let (served, took) = register(&parts, p.n, p.eps)?;
        setups.push(start.elapsed().as_secs_f64());
        partitioning.push(ms(part));
        census.push(ms(took));
        if let Some((_, _, earlier)) = fixture.replace((g, parts, served)) {
            earlier.close()?;
        }
    }
    let (g, parts, served) = fixture.expect("SETUP_REPS is positive");
    let (reference_input, prepare) = timed(|| PreparedInput::new(&g, &parts));
    let reference_input = reference_input.map_err(|e| format!("preparing the reference: {e}"))?;

    let mut layers = Layers::default();
    layers.set("graph.partition.ms", measure::median(&partitioning));
    layers.set("comm.daemon.census_ms", measure::median(&census));
    layers.set("comm.player.prepare_ms", ms(prepare));
    layers.set("protocols.amplify.reps_run", 1.0);
    layers.set("protocols.amplify.reps_budget", 1.0);
    layers.set("protocols.amplify.run_ratio", 1.0);
    let mut notes = vec![format!(
        "input: bipartite n={} m={} k={} over {} loopback connections, unrestricted tester eps={}; coordinator and players pinned to cpu {}",
        g.vertex_count(),
        g.edge_count(),
        p.k,
        p.k,
        p.eps,
        pinned.map_or("none (unsupported)".into(), |c| c.to_string())
    )];

    let tester = UnrestrictedTester::new(Tuning::practical(p.eps));
    let serial = Pool::serial();
    let mut gate = Gate::default();
    let mut e2e = E2e {
        per_sample: 1,
        ..E2e::default()
    };
    let mut traced_ms = Vec::new();
    let mut deliveries = Vec::new();
    let driven = drive(opts, |i, role| {
        let traced = role == Role::Traced;
        let base = sample_seed(opts.seed, i);
        let shared = SharedRandomness::new(rep_seed(base, 0));
        let run = served_run(&served, &tester, p.n, shared, traced.then_some(&mut layers));
        // The in-process reference runs after the clock stopped.
        let (reference, took) =
            timed(|| run_amplified_prepared(&serial, &tester, &reference_input, 1, base));
        if traced {
            layers.push("query.inprocess_ms", ms(took));
        }
        let reference = reference
            .map(|r| (r.outcome, r.stats))
            .map_err(|e| format!("in-process reference: {e}"));
        let checked = run
            .result
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|&(outcome, stats)| {
                check::verdict(&g, Expect::Accepted, &outcome)?;
                let want = reference?;
                if (outcome, stats) == want {
                    Ok(())
                } else {
                    Err(format!(
                        "served run gave {:?}, in-process gave {want:?}",
                        (outcome, stats)
                    ))
                }
            });
        gate.record(&format!("run {i}"), checked);
        if role == Role::Warmup {
            return;
        }
        if traced {
            traced_ms.push(ms(run.latency));
            deliveries.extend(run.deliveries);
        } else {
            e2e.latencies_ms.push(ms(run.latency));
            if let Ok((_, stats)) = &run.result {
                e2e.bits += stats.total_bits;
            }
        }
    });
    if let Err(e) = served.close() {
        gate.record("shutdown", Err(e));
    }
    if opts.trace {
        layers.set(
            "comm.tcp.deliver_p50_us",
            measure::percentile_us(&deliveries, 50),
        );
        layers.set(
            "comm.tcp.deliver_p99_us",
            measure::percentile_us(&deliveries, 99),
        );
    }
    e2e.setup_s = measure::median(&setups) + driven.warmup_s;
    e2e.driven = driven;
    notes.push(format!(
        "setup: generate + partition + register {:.3} s (median of {SETUP_REPS}), warm-up run {:.3} s (median of {SETUP_REPS})",
        measure::median(&setups),
        driven.warmup_s
    ));
    // No pool on the served path: its workers are the player threads.
    super::finish_layers(&mut layers, &e2e, &traced_ms, p.k);
    Ok(Report::new(
        "serve-loopback",
        opts,
        gate,
        &e2e,
        &layers,
        notes,
    ))
}
