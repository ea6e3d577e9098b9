//! The benchmark's own contract: every declared metric is reported with
//! its unit at a tiny scale, and the correctness gate counts wrong
//! answers instead of hiding them.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::{Arc, Mutex};
use triad_comm::{
    run_simultaneous_prepared, CostModel, LocalTransport, Pool, Runtime, SharedRandomness, Tally,
};
use triad_e2e_bench::check::{self, Expect, Gate};
use triad_e2e_bench::trace::{reencode, DeliveryLog, PhaseClock, TimedSim, TimedTransport};
use triad_e2e_bench::workloads::{serve, sessions};
use triad_e2e_bench::{Options, Report, PER_LAYER};
use triad_graph::generators::far_graph;
use triad_graph::partition::random_disjoint;
use triad_graph::{Triangle, VertexId};
use triad_protocols::amplify::{rep_seed, run_amplified_prepared};
use triad_protocols::simultaneous::AlgLow;
use triad_protocols::{
    PreparedInput, SimProtocolKind, SimultaneousTester, TestOutcome, Tuning, UnrestrictedTester,
};

/// (name, unit) of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json sits at the repository root");
    let start = json
        .find(&format!("\"{section}\": ["))
        .unwrap_or_else(|| panic!("no {section} section"));
    let body = &json[start..start + json[start..].find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let from = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[from..from + entry[from..].find('"').expect("string closes")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn opts(seed: u64, trace: bool) -> Options {
    Options {
        seed,
        seconds: 0.2,
        trace,
    }
}

fn assert_reports(report: &Report, section: &str) {
    assert_eq!(report.gate.failed, 0, "{:?}", report.gate.messages);
    assert!(report.gate.attempted > 0);
    let want = declared(section);
    let got: Vec<(String, String)> = report
        .metrics
        .iter()
        .map(|(n, v, u)| {
            assert!(v.is_finite(), "{n} = {v}");
            (n.clone(), u.to_string())
        })
        .collect();
    assert_eq!(
        got, want,
        "{} reports exactly the declared {section}",
        report.workload
    );
    let json = report.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(report.render().ends_with(&format!("{json}\n")));
}

fn assert_both_modes(run: impl Fn(&Options) -> Result<Report, String>, seed: u64) {
    let plain = run(&opts(seed, false)).expect("tiny workload runs");
    assert_reports(&plain, "end_to_end");
    for name in ["latency_tail_ms", "bits_per_query", "success_ratio"] {
        assert!(plain.metric(name).expect("reported") > 0.0, "{name}");
    }
    let traced = run(&opts(seed + 1, true)).expect("tiny traced workload runs");
    assert_reports(&traced, "per_layer");
    assert!(traced.metric("trace.overhead_ratio").expect("reported") > 0.0);
}

#[test]
fn declared_per_layer_metrics_match_the_code() {
    let code: Vec<(String, String)> = PER_LAYER
        .iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect();
    assert_eq!(declared("per_layer"), code);
}

#[test]
fn sessions_report_every_metric() {
    assert_both_modes(|o| sessions::run(&sessions::Params::TINY, o), 20);
}

#[test]
fn sessions_measure_the_store_layers() {
    let traced = sessions::run(&sessions::Params::TINY, &opts(21, true)).expect("runs");
    for name in [
        "graph.store.file_bytes",
        "graph.store.owned_bytes",
        "graph.store.open_ms",
    ] {
        assert!(traced.metric(name).expect("reported") > 0.0, "{name}");
    }
    assert_eq!(traced.metric("comm.scheduler.cache_misses"), Some(4.0));
}

#[test]
fn serve_reports_every_metric() {
    assert_both_modes(|o| serve::run(&serve::Params::TINY, o), 30);
}

#[test]
fn traced_spans_cover_the_sample() {
    // The stage sums of the acceptance criterion: within 5% of the
    // traced sample's latency.
    let traced = serve::run(&serve::Params::TINY, &opts(41, true)).expect("runs");
    let coverage = traced.metric("trace.span_coverage").expect("reported");
    assert!((0.95..=1.0).contains(&coverage), "{coverage}");
    assert!(traced.metric("comm.tcp.deliveries").expect("reported") > 0.0);
    assert!(traced.metric("comm.wire.frames").expect("reported") > 0.0);
}

#[test]
fn a_fabricated_witness_counts_as_a_failure() {
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    let g = far_graph(300, 6.0, 0.2, &mut rng).expect("plants");
    let real = triad_graph::triangles::find_triangle(&g).expect("far graphs have triangles");
    let fake = (0..300u32)
        .flat_map(|a| (a + 1..300).map(move |b| (a, b)))
        .map(|(a, b)| Triangle::new(VertexId(a), VertexId(b), VertexId(299 - a % 2)))
        .find(|t| !t.exists_in(&g))
        .expect("some triple is not a triangle");
    let mut gate = Gate::default();
    gate.record(
        "real",
        check::verdict(&g, Expect::Found, &TestOutcome::TriangleFound(real)),
    );
    gate.record(
        "fake",
        check::verdict(&g, Expect::Found, &TestOutcome::TriangleFound(fake)),
    );
    gate.record(
        "missed",
        check::verdict(&g, Expect::Found, &TestOutcome::NoTriangleFound),
    );
    gate.record(
        "accepted",
        check::verdict(&g, Expect::Accepted, &TestOutcome::TriangleFound(real)),
    );
    assert_eq!((gate.attempted, gate.failed), (4, 3), "{:?}", gate.messages);
    assert!(
        gate.messages[0].contains("not in the input"),
        "{:?}",
        gate.messages
    );
    assert_eq!(gate.fail_ratio(), 0.75);
}

#[test]
fn decorators_leave_results_unchanged() {
    let mut rng = ChaCha8Rng::seed_from_u64(6);
    let g = far_graph(600, 8.0, 0.2, &mut rng).expect("plants");
    let parts = random_disjoint(&g, 3, &mut rng);
    let input = PreparedInput::new(&g, &parts).expect("valid shares");
    let tuning = Tuning::practical(0.2);
    let d = g.average_degree();
    for seed in 0..4 {
        let low = SimultaneousTester::new(tuning, SimProtocolKind::Low { avg_degree: d });
        let plain = run_amplified_prepared(&Pool::serial(), &low, &input, 1, seed).expect("runs");
        let timed = TimedSim::new(AlgLow::new(tuning, d));
        let run = run_simultaneous_prepared::<_, Tally>(
            &timed,
            input.n(),
            input.players(),
            SharedRandomness::new(rep_seed(seed, 0)),
        );
        assert_eq!(
            (TestOutcome::from(run.output), run.stats),
            (plain.outcome, plain.stats)
        );

        let tester = UnrestrictedTester::new(tuning);
        let plain =
            run_amplified_prepared(&Pool::serial(), &tester, &input, 1, seed).expect("runs");
        let shared = SharedRandomness::new(rep_seed(seed, 0));
        let log = Arc::new(Mutex::new(DeliveryLog::default()));
        let transport = TimedTransport::new(
            LocalTransport::from_shared(input.shared_players(), shared),
            Arc::clone(&log),
        );
        let mut rt = Runtime::<PhaseClock>::new_with(
            Box::new(transport),
            input.n(),
            shared,
            CostModel::Coordinator,
        );
        let outcome = tester.run_on(&mut rt);
        assert_eq!((outcome, rt.stats()), (plain.outcome, plain.stats));
        let phases = rt.into_recorder().finish();
        assert!(
            phases.iter().any(|(p, _)| *p == "estimate-degree"),
            "{phases:?}"
        );
        let log = log.lock().expect("not poisoned");
        assert_eq!(log.times.len(), log.exchanges.len());
        let wire = reencode(&log.exchanges, 3, shared.seed()).expect("frames round-trip");
        assert_eq!(wire.frames, 2 * (3 + log.exchanges.len() as u64));
    }
}
