//! The workloads. Each runs as a closed loop with one client: the
//! next request starts when the previous one has been checked against the
//! in-process oracle.

mod federation;
mod in_process;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

use ppc_scenario::digest::fingerprint_outcome;
use ppc_scenario::{Scenario, ScenarioSpec, SchemaShape, SiteSkew};

use crate::spans::SpanLog;
use crate::sys;
use crate::verify::Verdict;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One-shard `ShardedEngine` over an in-memory `Network`.
    InMemClusterBound,
    /// One-shard `ShardedEngine` over one sealed `TcpTransport` and an
    /// in-process `TcpRouter`.
    TcpSealedBulk,
    /// Real `ppc-party` processes against an in-process `TcpRouter`. Run
    /// by hand only: its failures vary from run to run (see the README's
    /// known defects), so `BENCHMARK.json` does not list it.
    ProcFederation,
}

impl Workload {
    /// Every workload; the listed ones in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::InMemClusterBound,
        Workload::TcpSealedBulk,
        Workload::ProcFederation,
    ];

    /// The workload's stable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::InMemClusterBound => "inmem_cluster_bound",
            Workload::TcpSealedBulk => "tcp_sealed_bulk",
            Workload::ProcFederation => "proc_federation",
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The scenario one request runs, generated from the run's seed.
    pub fn spec(self, seed: u64) -> ScenarioSpec {
        match self {
            Workload::InMemClusterBound => ScenarioSpec {
                seed,
                sites: 4,
                objects: 1200,
                clusters: 4,
                skew: SiteSkew::Uniform,
                shape: SchemaShape {
                    numeric: 4,
                    categorical: 1,
                    alphanumeric: 0,
                    sequence_len: 0,
                },
                sessions: 5,
                chunk_base: Some(64),
            },
            Workload::TcpSealedBulk => ScenarioSpec {
                seed,
                sites: 4,
                objects: 400,
                clusters: 3,
                skew: SiteSkew::Uniform,
                shape: SchemaShape {
                    numeric: 1,
                    categorical: 1,
                    alphanumeric: 2,
                    sequence_len: 10,
                },
                sessions: 1,
                chunk_base: Some(16),
            },
            Workload::ProcFederation => ScenarioSpec {
                seed,
                sites: 3,
                objects: 240,
                clusters: 3,
                skew: SiteSkew::Uniform,
                shape: SchemaShape::default(),
                sessions: 12,
                chunk_base: Some(4),
            },
        }
    }
}

/// How a run is driven.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Length of each timed phase.
    pub seconds: f64,
    /// Whether to run the traced phase (after an untraced one).
    pub trace: bool,
    /// The `ppc-party` binary (`proc_federation` only).
    pub party_bin: PathBuf,
    /// Scratch directory for generated files.
    pub work_dir: PathBuf,
}

/// Per-request samples of per-layer metrics, reduced to medians.
#[derive(Debug, Default)]
pub struct Layers {
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Layers {
    /// Adds one sample of `name`.
    pub fn add(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// The median sample of `name` (0 when never sampled).
    pub fn median(&self, name: &str) -> f64 {
        self.samples
            .get(name)
            .map_or(0.0, |s| crate::stats::median(s))
    }

    /// Whether `name` was sampled.
    pub fn has(&self, name: &str) -> bool {
        self.samples.contains_key(name)
    }
}

/// One timed phase of a run.
#[derive(Debug, Default)]
pub struct Phase {
    /// Wall time of the whole closed loop.
    pub wall_s: f64,
    /// Per-request latency.
    pub latencies: Vec<f64>,
    /// Sessions attempted.
    pub attempted: u64,
    /// Sessions that errored, differed from the oracle or were killed.
    pub failed: u64,
    /// Sessions whose result differed from the oracle unexplained.
    pub differed: u64,
    /// Sessions that differed exactly as a named known defect predicts.
    pub known_defects: BTreeMap<&'static str, u64>,
    /// CPU seconds of this process and its reaped children.
    pub cpu_s: f64,
    /// Bytes the program reported sending, over requests that ran to the
    /// end (a killed process reports nothing).
    pub wire_bytes: u64,
    /// Sessions of the requests `wire_bytes` covers.
    pub wire_sessions: u64,
    /// One line per failed request.
    pub failures: Vec<String>,
    /// Per-layer samples (traced phase only).
    pub layers: Layers,
    /// Send→receive transit samples, ns (traced in-process phases only).
    pub transit_ns: Vec<u64>,
    /// Receives the transit matching found no send for (should be 0).
    pub transit_unmatched: u64,
    /// Requests killed as stalled.
    pub deadline_kills: u64,
    /// Traced requests whose layer replay failed or did not reproduce
    /// the published result.
    pub replay_errors: u64,
}

impl Phase {
    /// Sessions identical to the oracle.
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Everything one invocation measured.
#[derive(Debug)]
pub struct RunOutput {
    /// `Scenario::fingerprint()` of each generated input scenario.
    pub scenario_fingerprints: Vec<u64>,
    /// Sessions per request.
    pub sessions_per_request: usize,
    /// Set-up time samples.
    pub setup_s: Vec<f64>,
    /// The untraced phase.
    pub untraced: Phase,
    /// The traced phase, when tracing.
    pub traced: Option<Phase>,
    /// Peak RSS in MiB, as defined per workload.
    pub peak_rss_mib: f64,
    /// Run-level per-layer samples (set-up, connect, teardown, parsing).
    pub run_layers: Layers,
    /// Every span recorded (traced runs).
    pub spans: SpanLog,
}

/// What one request produced.
struct RequestResult {
    latency_s: f64,
    verdicts: Vec<Verdict>,
    failure: Option<String>,
    wire_bytes: u64,
    killed: bool,
    /// Traced requests: whether the layer replays reproduced the
    /// published results.
    replay: Result<(), String>,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs `request` back to back until `seconds` have elapsed, checking
/// every session's verdict.
fn closed_loop(
    seconds: f64,
    mut request: impl FnMut(usize, &mut Layers) -> RequestResult,
) -> Phase {
    let mut phase = Phase::default();
    let cpu0 = sys::self_cpu_s() + sys::children_cpu_s();
    let start = Instant::now();
    let mut index = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let r = request(index, &mut phase.layers);
        index += 1;
        phase.latencies.push(r.latency_s);
        if !r.killed {
            phase.wire_bytes += r.wire_bytes;
            phase.wire_sessions += r.verdicts.len() as u64;
        }
        phase.attempted += r.verdicts.len() as u64;
        let bad = r
            .verdicts
            .iter()
            .filter(|v| **v != Verdict::Identical)
            .count() as u64;
        for verdict in &r.verdicts {
            match verdict {
                Verdict::Differs(_) => phase.differed += 1,
                Verdict::KnownDefect(name) => *phase.known_defects.entry(name).or_default() += 1,
                Verdict::Identical | Verdict::Missing => {}
            }
        }
        phase.failed += bad;
        phase.deadline_kills += u64::from(r.killed);
        if bad > 0 || r.failure.is_some() {
            phase.failures.push(format!(
                "request {}: {} of {} sessions failed: {}",
                index - 1,
                bad,
                r.verdicts.len(),
                r.failure.unwrap_or_else(|| format!("{:?}", r.verdicts))
            ));
        }
        if let Err(e) = r.replay {
            phase.replay_errors += 1;
            phase
                .failures
                .push(format!("request {}: layer replay: {e}", index - 1));
        }
    }
    phase.wall_s = start.elapsed().as_secs_f64();
    phase.cpu_s = sys::self_cpu_s() + sys::children_cpu_s() - cpu0;
    phase
}

/// Runs the closed loop untraced, then (when tracing) traced.
fn phases(
    config: &RunConfig,
    mut request: impl FnMut(bool, usize, &mut Layers) -> RequestResult,
) -> (Phase, Option<Phase>) {
    let untraced = closed_loop(config.seconds, |i, l| request(false, i, l));
    let traced = config
        .trace
        .then(|| closed_loop(config.seconds, |i, l| request(true, i, l)));
    (untraced, traced)
}

/// Set-up repetitions per run; the median is reported.
const SETUP_REPS: usize = 25;

/// Generates the scenario and the oracle's per-session fingerprints.
fn scenario_and_oracle(workload: Workload, seed: u64) -> Result<(Scenario, Vec<u64>), String> {
    let scenario = workload.spec(seed).generate()?;
    let expected = scenario.oracle()?.iter().map(fingerprint_outcome).collect();
    Ok((scenario, expected))
}

/// Runs `config.workload`.
pub fn run(config: &RunConfig) -> Result<RunOutput, String> {
    match config.workload {
        Workload::InMemClusterBound => in_process::run_inmem(config),
        Workload::TcpSealedBulk => in_process::run_tcp(config),
        Workload::ProcFederation => federation::run(config),
    }
}
