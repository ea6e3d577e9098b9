//! The correctness gate: every verdict the benchmark times is checked,
//! and every failure is counted and printed instead of panicking.

use triad_graph::{AsCsr, Triangle};
use triad_protocols::TestOutcome;

/// What an input promises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// An ε-far input: the tester must report a triangle.
    Found,
    /// A triangle-free input: the tester must accept.
    Accepted,
}

/// `Ok` when every edge of `t` is in `g`; otherwise names the missing
/// edge.
pub fn witness_in<G: AsCsr + ?Sized>(g: &G, t: &Triangle) -> Result<(), String> {
    match t.edges().into_iter().find(|e| g.edge_index(*e).is_none()) {
        None => Ok(()),
        Some(e) => Err(format!(
            "witness {t} uses edge {e}, which is not in the input"
        )),
    }
}

/// Checks one verdict against what its input promises, and any witness
/// against the input's adjacency.
pub fn verdict<G: AsCsr + ?Sized>(
    g: &G,
    expect: Expect,
    outcome: &TestOutcome,
) -> Result<(), String> {
    match (outcome.triangle(), expect) {
        (Some(t), Expect::Found) => witness_in(g, &t),
        (Some(t), Expect::Accepted) => {
            witness_in(g, &t)?;
            Err(format!("triangle {t} reported on a triangle-free input"))
        }
        (None, Expect::Found) => Err("no triangle found on an ε-far input".into()),
        (None, Expect::Accepted) => Ok(()),
    }
}

/// Counts attempted and failed queries, keeping (and printing) the
/// first few failure messages for the report.
#[derive(Debug, Default)]
pub struct Gate {
    /// Queries attempted.
    pub attempted: u64,
    /// Queries whose result was wrong, an error, or inconclusive.
    pub failed: u64,
    /// The first failure messages, in order.
    pub messages: Vec<String>,
}

impl Gate {
    const KEPT: usize = 20;

    /// Records one query's check.
    pub fn record(&mut self, what: &str, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(msg) = result {
            self.fail(what, msg);
        }
    }

    fn fail(&mut self, what: &str, msg: String) {
        self.failed += 1;
        // A broken transport fails every later query at once; the first
        // failures say why, the count says how many.
        if self.messages.len() < Self::KEPT {
            let line = format!("FAIL {what}: {msg}");
            eprintln!("{line}");
            self.messages.push(line);
        }
    }

    /// Failed over attempted (0 before any attempt).
    pub fn fail_ratio(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}
