//! `proc_federation`: real `ppc-party` processes against an in-process
//! `TcpRouter`, one whole federation per request.

use std::fs::File;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use ppc_core::csv::parse_csv;
use ppc_core::protocol::engine::{EngineOutcome, SessionEngine, SessionSpec};
use ppc_core::schema::WeightVector;
use ppc_net::{Network, SealingStats, TcpRouter};
use ppc_scenario::Scenario;

use super::{phases, ratio, Layers, RequestResult, RunConfig, RunOutput, SETUP_REPS};
use crate::replay;
use crate::spans::{self, SpanLog};
use crate::sys;
use crate::verify::{self, Expected, Verdict};

/// Scenarios per run, drawn from the run's seed and used round-robin, so
/// a run's figures average over several generated federations instead of
/// hinging on one manifest.
const POOL: u64 = 16;

/// Generous per-request deadline: a healthy request takes about a second
/// on two cores.
const DEADLINE: Duration = Duration::from_secs(10);

/// A federation whose live processes together gain less than
/// [`IDLE_CPU_S`] of CPU time over [`IDLE_WINDOW`] has stalled: a healthy
/// federation keeps both cores busy until its coordinator exits.
const IDLE_WINDOW: Duration = Duration::from_millis(500);
const IDLE_CPU_S: f64 = 0.025;

/// How often the federation's CPU time and peak RSS are read.
const SAMPLE_EVERY: Duration = Duration::from_millis(50);

/// How long a router's teardown may take once its federation has exited.
const ROUTER_DRAIN: Duration = Duration::from_secs(2);

/// Name of the known defect [`renormalisation_defects`] predicts.
const RENORMALISED_WEIGHTS: &str = "announced-weights-renormalised";

/// Marks the sessions a known `ppc-party` defect changes: remote parties
/// rebuild the announced (already normalised) weights with
/// `WeightVector::new`, which normalises again. Where that second pass is
/// not exact in `f64`, the third party folds with slightly different
/// weights and the matrix differs from the oracle in its last bits. For
/// each such session the oracle is rerun with the renormalised weights,
/// so a result matching it is classified rather than unexplained.
fn renormalisation_defects(
    scenario: &Scenario,
    specs: &[SessionSpec],
    expected: &mut [Expected],
) -> Result<(), String> {
    for (spec, e) in specs.iter().zip(expected) {
        let weights = spec.request.weights.weights();
        let again = WeightVector::new(weights.to_vec()).map_err(|e| e.to_string())?;
        if again
            .weights()
            .iter()
            .zip(weights)
            .all(|(a, b)| a.to_bits() == b.to_bits())
        {
            continue;
        }
        let mut engine = SessionEngine::new(Network::with_parties(scenario.spec.sites));
        let mut spec = spec.clone();
        spec.request.weights = again;
        engine.add_session(spec);
        let outcomes = engine.run().map_err(|e| e.to_string())?;
        e.known_defect = Some((
            RENORMALISED_WEIGHTS,
            Box::new(Expected::from_outcome(&outcomes[0])),
        ));
    }
    Ok(())
}

/// One generated federation: its files on disk and its oracle.
struct Member {
    scenario: Scenario,
    csvs: Vec<PathBuf>,
    manifest: PathBuf,
    specs: Vec<SessionSpec>,
    oracle: Vec<EngineOutcome>,
    expected: Vec<Expected>,
}

impl Member {
    /// Generates the scenario, writes its CSVs and manifest into `dir`,
    /// and runs its oracle.
    fn prepare(config: &RunConfig, seed: u64, dir: &Path) -> Result<(Member, f64), String> {
        let scenario = config.workload.spec(seed).generate()?;
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let csvs = scenario
            .write_csvs(dir)
            .map_err(|e| format!("writing CSVs: {e}"))?;
        let manifest = dir.join("manifest.txt");
        std::fs::write(&manifest, scenario.manifest_text())
            .map_err(|e| format!("writing the manifest: {e}"))?;
        let specs = scenario.session_specs()?;
        let mut engine = SessionEngine::new(Network::with_parties(scenario.spec.sites));
        for spec in specs.iter().cloned() {
            engine.add_session(spec);
        }
        let oracle = engine.run().map_err(|e| e.to_string())?;
        let hit_rate = engine
            .derivation_cache_stats()
            .unwrap_or_default()
            .hit_rate();
        let mut expected: Vec<Expected> = oracle.iter().map(Expected::from_outcome).collect();
        renormalisation_defects(&scenario, &specs, &mut expected)?;
        let member = Member {
            scenario,
            csvs,
            manifest,
            specs,
            oracle,
            expected,
        };
        Ok((member, hit_rate))
    }

    /// Spawns `sites + 1` processes against `addr`: every site but DH0
    /// and the third party serve; DH0 coordinates the manifest. Each
    /// process's stdout goes to a file in `dir`.
    fn spawn(&self, bin: &Path, addr: &str, dir: &Path) -> Result<Federation, String> {
        let spec = &self.scenario.spec;
        let common = [
            "--connect".to_string(),
            format!("tcp:{addr}"),
            "--seed".into(),
            spec.seed.to_string(),
            "--schema".into(),
            self.scenario.schema_cli().to_string(),
        ];
        let serve = |party: &str| {
            vec![
                "serve".to_string(),
                "--party".into(),
                party.into(),
                "--coordinator".into(),
                "DH0".into(),
            ]
        };
        let mut plans: Vec<(String, Vec<String>)> = Vec::new();
        for site in 1..spec.sites {
            let party = format!("DH{site}");
            let mut args = serve(&party);
            args.extend([
                "--csv".into(),
                self.csvs[site as usize].display().to_string(),
            ]);
            plans.push((party, args));
        }
        plans.push(("TP".into(), serve("TP")));
        let remote: Vec<String> = (1..spec.sites)
            .map(|i| format!("DH{i}"))
            .chain(["TP".to_string()])
            .collect();
        plans.push((
            "DH0".into(),
            [
                "coordinate",
                "--party",
                "DH0",
                "--remote",
                &remote.join(","),
                "--csv",
                &self.csvs[0].display().to_string(),
                "--clusters",
                "2",
                "--manifest",
                &self.manifest.display().to_string(),
            ]
            .map(String::from)
            .to_vec(),
        ));
        let mut federation = Federation {
            processes: Vec::new(),
        };
        for (label, mut args) in plans {
            args.extend(common.iter().cloned());
            let stdout = dir.join(format!("{label}.out"));
            let file = File::create(&stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
            let child = Command::new(bin)
                .args(&args)
                .stdout(file)
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
            federation.processes.push(Process {
                label,
                child,
                stdout,
                exited: None,
                cpu_s: 0.0,
                peak_kib: 0,
            });
        }
        Ok(federation)
    }
}

/// A federation's processes; any still running are killed and reaped
/// on drop, so no process outlives its request.
struct Federation {
    processes: Vec<Process>,
}

struct Process {
    label: String,
    child: Child,
    stdout: PathBuf,
    exited: Option<Instant>,
    /// CPU seconds last read while it ran.
    cpu_s: f64,
    /// `VmHWM` last read while it ran, KiB.
    peak_kib: u64,
}

impl Federation {
    /// Reaps exited processes; true once all have exited.
    fn all_exited(&mut self) -> bool {
        let now = Instant::now();
        for p in &mut self.processes {
            if p.exited.is_none() && matches!(p.child.try_wait(), Ok(Some(_))) {
                p.exited = Some(now);
            }
        }
        self.processes.iter().all(|p| p.exited.is_some())
    }

    /// Reads each running process's CPU time and peak RSS, returning the
    /// CPU seconds the federation has used so far.
    fn sample(&mut self) -> f64 {
        for p in &mut self.processes {
            if p.exited.is_none() {
                let pid = p.child.id();
                p.cpu_s = sys::process_cpu_s(pid).unwrap_or(p.cpu_s);
                p.peak_kib = p.peak_kib.max(sys::vm_hwm_kib(pid).unwrap_or(0));
            }
        }
        self.processes.iter().map(|p| p.cpu_s).sum()
    }

    /// One `label=state` item per process: `exit:<code>` or
    /// `running:<cpu seconds>`.
    fn states(&mut self) -> String {
        let states: Vec<String> = self
            .processes
            .iter_mut()
            .map(|p| match p.child.try_wait() {
                Ok(Some(status)) => format!("{}=exit:{}", p.label, status.code().unwrap_or(-1)),
                _ => format!("{}=running:{:.2}s", p.label, p.cpu_s),
            })
            .collect();
        states.join(",")
    }

    fn kill_all(&mut self) {
        for p in &mut self.processes {
            if p.exited.is_none() {
                let _ = p.child.kill();
                let _ = p.child.wait();
                p.exited = Some(Instant::now());
            }
        }
    }
}

impl Drop for Federation {
    fn drop(&mut self) {
        self.kill_all();
    }
}

/// Summed `STATS`/`SEALING`/`DELIVERY` counters across a federation.
#[derive(Debug, Default)]
struct PartyCounters {
    rounds: u64,
    idle_parks: u64,
    messages_sent: u64,
    peak_buffered_rows: u64,
    sealing: SealingStats,
    pool_hits: u64,
    pool_misses: u64,
    wake_signals: u64,
}

impl PartyCounters {
    fn absorb(&mut self, stdout: &str) {
        let num = |line: &str, key: &str| {
            verify::field(line, key)
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        for line in stdout.lines() {
            if line.starts_with("STATS ") {
                self.rounds += num(line, "rounds");
                self.idle_parks += num(line, "blocking_waits");
                self.messages_sent += num(line, "messages_sent");
                self.peak_buffered_rows =
                    self.peak_buffered_rows.max(num(line, "peak_buffered_rows"));
            } else if line.starts_with("SEALING ") {
                self.sealing.merge(&SealingStats {
                    records_sealed: num(line, "records_sealed"),
                    frames_sealed: num(line, "frames_sealed"),
                    plaintext_bytes: num(line, "plaintext_bytes"),
                    sealed_bytes: num(line, "sealed_bytes"),
                    records_opened: num(line, "records_opened"),
                    frames_opened: num(line, "frames_opened"),
                });
            } else if line.starts_with("DELIVERY ") {
                self.pool_hits += num(line, "pool_hits");
                self.pool_misses += num(line, "pool_misses");
                self.wake_signals += num(line, "wake_signals");
            }
        }
    }
}

/// The in-process router of one request, driven from helper threads.
///
/// Known defect: `TcpRouter` can deadlock with its reactor thread.
/// `shutdown` holds the link table while it quiesces each connection's
/// reactor source, and a source still draining a closing connection takes
/// the link table to forward. A run has also hung with the benchmark
/// blocked inside a router call. So the request loop never calls the
/// router itself. A watcher thread polls `connection_count()` and
/// publishes what it sees, and teardown runs on a thread of its own. A
/// router whose teardown does not finish within [`ROUTER_DRAIN`] is left
/// behind, with its threads, until the benchmark exits.
struct RouterHandle {
    router: Arc<TcpRouter>,
    watcher: std::thread::JoinHandle<()>,
    stop: Arc<AtomicBool>,
    /// Connections the watcher last saw.
    connections: Arc<AtomicUsize>,
    /// When the watcher first saw every process connected.
    connected: Arc<OnceLock<Instant>>,
}

impl RouterHandle {
    fn spawn(processes: usize) -> Result<(Self, SocketAddr), String> {
        let (router, addr) = TcpRouter::spawn("127.0.0.1:0").map_err(|e| e.to_string())?;
        let router = Arc::new(router);
        let stop = Arc::new(AtomicBool::new(false));
        let connections = Arc::new(AtomicUsize::new(0));
        let connected = Arc::new(OnceLock::new());
        let watcher = {
            let (router, stop) = (Arc::clone(&router), Arc::clone(&stop));
            let (connections, connected) = (Arc::clone(&connections), Arc::clone(&connected));
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) && connected.get().is_none() {
                    let n = router.connection_count();
                    connections.store(n, Ordering::Relaxed);
                    if n >= processes {
                        let _ = connected.set(Instant::now());
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
            })
        };
        let handle = RouterHandle {
            router,
            watcher,
            stop,
            connections,
            connected,
        };
        Ok((handle, addr))
    }

    /// Stops the watcher, then shuts the router down once every connection
    /// has closed. Returns whether teardown finished in time.
    fn close(self) -> bool {
        self.stop.store(true, Ordering::Relaxed);
        let RouterHandle {
            router, watcher, ..
        } = self;
        let closer = std::thread::spawn(move || {
            // The watcher holds the other reference until it returns.
            let _ = watcher.join();
            let Ok(mut router) = Arc::try_unwrap(router) else {
                return;
            };
            let give_up = Instant::now() + ROUTER_DRAIN;
            while router.connection_count() > 0 {
                if Instant::now() >= give_up {
                    // Shutting down now risks the deadlock above.
                    std::mem::forget(router);
                    return;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
            router.shutdown();
        });
        // Waiting on connections takes at most one drain; shutdown gets
        // another.
        let deadline = Instant::now() + 2 * ROUTER_DRAIN;
        while !closer.is_finished() {
            if Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        closer.join().is_ok()
    }
}

/// One federation request's raw results.
struct FederationRequest {
    start: Instant,
    connected: Option<Instant>,
    coordinator_exit: Instant,
    end: Instant,
    verdicts: Vec<Verdict>,
    failure: Option<String>,
    killed: bool,
    counters: PartyCounters,
    children_cpu_s: f64,
    /// The largest `VmHWM` any of its processes reached, KiB (sampled).
    peak_rss_kib: u64,
}

/// Runs one whole federation: router, processes, a wait bounded by the
/// idle check and the deadline, teardown, then the per-session
/// comparison with the oracle.
fn federation_request(
    member: &Member,
    bin: &Path,
    dir: &Path,
) -> Result<FederationRequest, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let processes = member.scenario.spec.sites as usize + 1;
    let cpu0 = sys::children_cpu_s();
    let start = Instant::now();
    let (router, addr) = RouterHandle::spawn(processes)?;
    let mut federation = member.spawn(bin, &addr.to_string(), dir)?;
    let mut stall: Option<String> = None;
    let (mut busy_at, mut busy_cpu) = (start, 0.0);
    let mut next_sample = start;
    loop {
        let now = Instant::now();
        if federation.all_exited() {
            break;
        }
        if now >= next_sample {
            next_sample = now + SAMPLE_EVERY;
            let cpu = federation.sample();
            if cpu - busy_cpu >= IDLE_CPU_S {
                (busy_at, busy_cpu) = (now, cpu);
            }
        }
        let reason = if now - busy_at >= IDLE_WINDOW {
            Some(format!(
                "idle: under {IDLE_CPU_S} s of CPU in {:?}",
                IDLE_WINDOW
            ))
        } else if now - start >= DEADLINE {
            Some(format!("deadline: still running after {DEADLINE:?}"))
        } else {
            None
        };
        if let Some(reason) = reason {
            stall = Some(format!(
                "{reason}, {:.2} s in ({} router_connections={})",
                (now - start).as_secs_f64(),
                federation.states(),
                router.connections.load(Ordering::Relaxed)
            ));
            federation.kill_all();
            break;
        }
        std::thread::sleep(Duration::from_micros(500));
    }
    let coordinator_exit = federation
        .processes
        .iter()
        .find(|p| p.label == "DH0")
        .and_then(|p| p.exited)
        .unwrap_or_else(Instant::now);
    let connected = router.connected.get().copied();
    let router_closed = router.close();
    let end = Instant::now();
    let children_cpu_s = sys::children_cpu_s() - cpu0;

    let mut counters = PartyCounters::default();
    let mut coordinator = String::new();
    let mut results = 0;
    let mut problems = Vec::new();
    for p in &mut federation.processes {
        let text = std::fs::read_to_string(&p.stdout).unwrap_or_default();
        counters.absorb(&text);
        results += verify::result_lines(&text);
        if let Ok(Some(status)) = p.child.try_wait() {
            if !status.success() && stall.is_none() {
                problems.push(format!("{} exited with {status}", p.label));
            }
        }
        if p.label == "DH0" {
            coordinator = text;
        }
    }
    if !router_closed {
        problems.push(format!(
            "router left behind: its teardown did not finish within {ROUTER_DRAIN:?}"
        ));
    }
    let killed = stall.is_some();
    let verdicts = match &stall {
        Some(why) => {
            problems.insert(
                0,
                format!("stalled: killed with {results} RESULT lines printed; {why}"),
            );
            vec![Verdict::Missing; member.expected.len()]
        }
        None => verify::compare_stdout(&coordinator, &member.expected),
    };
    Ok(FederationRequest {
        start,
        connected,
        coordinator_exit,
        end,
        verdicts,
        failure: (!problems.is_empty()).then(|| problems.join("; ")),
        killed,
        counters,
        children_cpu_s,
        peak_rss_kib: federation
            .processes
            .iter()
            .map(|p| p.peak_kib)
            .max()
            .unwrap_or(0),
    })
}

/// Records one traced federation request's spans and counters, and runs
/// the layer replays its counters allow.
fn trace_request(
    log: &mut SpanLog,
    index: usize,
    r: &FederationRequest,
    member: &Member,
    layers: &mut Layers,
) -> Result<(), String> {
    let request = log.record("request", r.start, r.end, None, Some(index));
    let connected = r.connected.unwrap_or(r.start);
    let mut children = Vec::new();
    for (name, s, e) in [
        ("party.spawn_to_connected", r.start, connected),
        ("party.run", connected, r.coordinator_exit),
        ("party.teardown", r.coordinator_exit, r.end),
    ] {
        if s < e {
            log.record(name, s, e, Some(request), Some(index));
            children.push((log.ns(s), log.ns(e)));
        }
    }
    let unattributed = spans::self_time(log.ns(r.start), log.ns(r.end), &children);
    layers.add("unattributed_s", unattributed as f64 / 1e9);
    layers.add(
        "party.spawn_to_connected_s",
        (connected - r.start).as_secs_f64(),
    );
    layers.add(
        "party.run_s",
        r.coordinator_exit
            .saturating_duration_since(connected)
            .as_secs_f64(),
    );
    layers.add(
        "party.teardown_s",
        r.end
            .saturating_duration_since(r.coordinator_exit)
            .as_secs_f64(),
    );
    layers.add("party.children_cpu_s", r.children_cpu_s);
    let c = &r.counters;
    layers.add("core.rounds", c.rounds as f64);
    layers.add("core.idle_parks", c.idle_parks as f64);
    layers.add("core.messages_sent", c.messages_sent as f64);
    layers.add("core.peak_buffered_rows", c.peak_buffered_rows as f64);
    let sessions = member.expected.len() as f64;
    layers.add(
        "net.payload_bytes",
        c.sealing.plaintext_bytes as f64 / sessions,
    );
    layers.add(
        "net.seal_overhead_ratio",
        ratio(
            c.sealing.sealed_bytes as f64,
            c.sealing.plaintext_bytes as f64,
        ),
    );
    layers.add("net.frames_per_record", c.sealing.frames_per_record());
    layers.add(
        "net.pool_hit_ratio",
        ratio(c.pool_hits as f64, (c.pool_hits + c.pool_misses) as f64),
    );
    layers.add("net.wake_signals", c.wake_signals as f64);
    let (seal_s, open_s) = replay::aead(c.sealing.records_sealed, c.sealing.plaintext_bytes)?;
    layers.add("crypto.seal_replay_s", seal_s);
    layers.add("crypto.open_replay_s", open_s);
    // The printed matrices were compared with the oracle's, so clustering
    // replays on the oracle's outcomes.
    let t = Instant::now();
    let clustering = replay::cluster(&member.oracle, &member.specs)?;
    log.record("replay.cluster", t, Instant::now(), None, Some(index));
    layers.add("cluster.fit_k_s", clustering.fit_k_s);
    layers.add("cluster.quality_s", clustering.quality_s);
    Ok(())
}

/// `proc_federation`.
pub fn run(config: &RunConfig) -> Result<RunOutput, String> {
    if !config.party_bin.is_file() {
        return Err(format!(
            "the ppc-party binary is missing at {}",
            config.party_bin.display()
        ));
    }
    let mut log = SpanLog::new();
    let mut run_layers = Layers::default();
    let mut pool = Vec::new();
    for k in 0..POOL {
        let seed = config.seed.wrapping_mul(POOL).wrapping_add(k);
        let dir = config.work_dir.join(format!("scenario{k}"));
        let (member, hit_rate) = Member::prepare(config, seed, &dir)?;
        // ppc-party publishes no cache counters; the in-process oracle
        // run of the same manifest stands in.
        run_layers.add("core.derive_cache_hit_ratio", hit_rate);
        // What every data-holder process does first: parse its CSV.
        let texts: Vec<String> = member
            .csvs
            .iter()
            .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
            .collect::<Result<_, _>>()?;
        for _ in 0..SETUP_REPS {
            let t = Instant::now();
            for text in &texts {
                parse_csv(&member.scenario.schema, text).map_err(|e| e.to_string())?;
            }
            run_layers.add("core.csv_parse_s", t.elapsed().as_secs_f64());
        }
        pool.push(member);
    }

    let mut setup_s = Vec::new();
    let mut peak_rss_kib = 0;
    let mut requests = 0usize;
    let (untraced, traced) = phases(config, |trace, index, layers| {
        let member = &pool[requests % pool.len()];
        let dir = config.work_dir.join(format!("req{requests}"));
        requests += 1;
        let r = federation_request(member, &config.party_bin, &dir);
        let _ = std::fs::remove_dir_all(&dir);
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                return RequestResult {
                    latency_s: 0.0,
                    verdicts: vec![Verdict::Missing; member.expected.len()],
                    failure: Some(e),
                    wire_bytes: 0,
                    killed: false,
                    replay: Ok(()),
                }
            }
        };
        peak_rss_kib = peak_rss_kib.max(r.peak_rss_kib);
        let mut replay = Ok(());
        match (trace, r.connected) {
            (false, Some(connected)) => setup_s.push((connected - r.start).as_secs_f64()),
            (true, _) => replay = trace_request(&mut log, index, &r, member, layers),
            (false, None) => {}
        }
        RequestResult {
            latency_s: (r.end - r.start).as_secs_f64(),
            verdicts: r.verdicts,
            failure: r.failure,
            wire_bytes: r.counters.sealing.sealed_bytes,
            killed: r.killed,
            replay,
        }
    });
    let _ = std::fs::remove_dir_all(&config.work_dir);
    if setup_s.is_empty() {
        return Err("no federation ever connected".into());
    }
    Ok(RunOutput {
        scenario_fingerprints: pool.iter().map(|m| m.scenario.fingerprint()).collect(),
        sessions_per_request: pool[0].expected.len(),
        setup_s,
        untraced,
        traced,
        peak_rss_mib: peak_rss_kib as f64 / 1024.0,
        run_layers,
        spans: log,
    })
}
