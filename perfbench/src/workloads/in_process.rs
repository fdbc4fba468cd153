//! The in-process workloads: a one-shard `ShardedEngine` over an
//! in-memory `Network` (`inmem_cluster_bound`) and over one sealed
//! `TcpTransport` through an in-process `TcpRouter` (`tcp_sealed_bulk`).

use std::time::Instant;

use ppc_core::protocol::derive_cache::DerivationCacheStats;
use ppc_core::protocol::engine::{EngineOutcome, SessionSpec};
use ppc_core::protocol::sharded::{ShardStats, ShardedEngine};
use ppc_net::{
    Backoff, ChannelKeyring, DeliveryStats, Network, SealingStats, TcpRouter, TcpTransport,
    TransportBackend, WaitStats, WaitStatsReporter, WaitTransport,
};
use ppc_scenario::Scenario;

use super::{
    phases, ratio, scenario_and_oracle, Layers, RequestResult, RunConfig, RunOutput, SETUP_REPS,
};
use crate::replay;
use crate::spans::{self, SpanLog};
use crate::sys;
use crate::timed::{Call, NetRecord, Timed};
use crate::verify::{self, Verdict};

/// One in-process engine request's raw results.
struct EngineRequest {
    start: Instant,
    built: Instant,
    end: Instant,
    result: Result<(Vec<EngineOutcome>, Vec<ShardStats>), String>,
    cache: Option<DerivationCacheStats>,
}

/// Builds a one-shard engine over `transport`, queues `specs` and runs it.
fn engine_request<T: WaitTransport + Sync>(transport: T, specs: &[SessionSpec]) -> EngineRequest {
    let start = Instant::now();
    let mut engine = ShardedEngine::new(vec![transport]).expect("one transport is enough");
    for spec in specs {
        engine.add_session(spec.clone());
    }
    let built = Instant::now();
    let result = engine
        .run()
        .map(|run| (run.outcomes, run.shards))
        .map_err(|e| e.to_string());
    let end = Instant::now();
    EngineRequest {
        start,
        built,
        end,
        result,
        cache: engine.derivation_cache_stats(),
    }
}

impl EngineRequest {
    fn latency_s(&self) -> f64 {
        (self.end - self.start).as_secs_f64()
    }

    /// Per-session verdicts against the oracle.
    fn verdicts(&self, expected: &[u64]) -> (Vec<Verdict>, Option<String>) {
        match &self.result {
            Ok((outcomes, _)) => (verify::compare_outcomes(outcomes, expected), None),
            Err(e) => (vec![Verdict::Missing; expected.len()], Some(e.clone())),
        }
    }
}

/// Records one traced in-process request: spans, the engine's own
/// counters, the net wrapper's record and the layer replays.
#[allow(clippy::too_many_arguments)]
fn trace_engine_request(
    log: &mut SpanLog,
    index: usize,
    er: &EngineRequest,
    net: NetRecord,
    specs: &[SessionSpec],
    layers: &mut Layers,
    transit: &mut (Vec<u64>, u64),
) -> Result<(), String> {
    let request = log.record("request", er.start, er.end, None, Some(index));
    log.record(
        "engine.build",
        er.start,
        er.built,
        Some(request),
        Some(index),
    );
    let run = log.record("engine.run", er.built, er.end, Some(request), Some(index));
    let (run_start, run_end) = (log.ns(er.built), log.ns(er.end));
    let mut intervals = Vec::with_capacity(net.calls.len());
    for &(call, s, e) in &net.calls {
        log.push(spans::Span {
            name: call.span_name(),
            start: s,
            end: e,
            parent: Some(run),
            request: Some(index),
        });
        intervals.push((s, e));
    }
    let net_ns = spans::union_len(run_start, run_end, &intervals);

    // A failed run is already counted as failed; there is nothing to replay.
    let Ok((outcomes, shards)) = &er.result else {
        return Ok(());
    };
    let mut derive = 0u64;
    let mut fold = 0u64;
    let mut merge = 0u64;
    for o in outcomes {
        derive += o.stats.compute.derive_nanos;
        fold += o.stats.compute.fold_unmask_nanos;
        merge += o.stats.compute.merge_nanos;
    }
    let run_ns = run_end - run_start;
    let engine_self = run_ns.saturating_sub(net_ns + derive + fold + merge);
    let request_self = spans::self_time(
        log.ns(er.start),
        log.ns(er.end),
        &[(log.ns(er.start), log.ns(er.built)), (run_start, run_end)],
    );
    layers.add("core.engine_run_s", run_ns as f64 / 1e9);
    layers.add("core.engine_self_s", engine_self as f64 / 1e9);
    layers.add("core.derive_s", derive as f64 / 1e9);
    layers.add("core.fold_unmask_s", fold as f64 / 1e9);
    layers.add("core.merge_s", merge as f64 / 1e9);
    layers.add("unattributed_s", (engine_self + request_self) as f64 / 1e9);
    if let Some(cache) = er.cache {
        layers.add("core.derive_cache_hit_ratio", cache.hit_rate());
    }
    let sum = |f: fn(&ShardStats) -> u64| shards.iter().map(f).sum::<u64>() as f64;
    layers.add("core.rounds", sum(|s| s.rounds));
    layers.add("core.idle_parks", sum(|s| s.blocking_waits));
    layers.add("core.messages_sent", sum(|s| s.messages_sent));
    layers.add(
        "core.peak_buffered_rows",
        shards
            .iter()
            .map(|s| s.peak_buffered_rows)
            .max()
            .unwrap_or(0) as f64,
    );

    layers.add("net.send_s", net.seconds_in(Call::Send));
    layers.add("net.flush_s", net.seconds_in(Call::Flush));
    layers.add("net.recv_wait_s", net.seconds_in(Call::RecvWait));
    layers.add("net.recv_timeouts", net.recv_timeouts as f64);
    layers.add(
        "net.try_receive_hit_ratio",
        ratio(net.try_hits as f64, (net.try_hits + net.try_misses) as f64),
    );
    layers.add(
        "net.payload_bytes",
        net.payload_bytes as f64 / specs.len() as f64,
    );
    transit.0.extend_from_slice(net.transit.samples());
    transit.1 += net.transit.unmatched();

    let t = Instant::now();
    let decode_s = replay::decode_all(&net.captured)?;
    log.record("replay.decode", t, Instant::now(), None, Some(index));
    layers.add("core.decode_replay_s", decode_s);

    let t = Instant::now();
    let clustering = replay::cluster(outcomes, specs)?;
    log.record("replay.cluster", t, Instant::now(), None, Some(index));
    layers.add("cluster.fit_k_s", clustering.fit_k_s);
    layers.add("cluster.quality_s", clustering.quality_s);
    Ok(())
}

/// `inmem_cluster_bound`.
pub fn run_inmem(config: &RunConfig) -> Result<RunOutput, String> {
    let (scenario, expected) = scenario_and_oracle(config.workload, config.seed)?;
    let mut log = SpanLog::new();
    let sites = scenario.spec.sites;
    let epoch = log.epoch();
    let mut transit = (Vec::new(), 0);
    let mut setup_s = Vec::new();

    // Every request runs its own trusted setup first, timed apart from
    // the request. On a shared 2-vCPU VM, single-threaded speed was seen
    // to shift by up to 1.7x within seconds; sampling set-up across the
    // whole run keeps its median from hinging on the moment one batch of
    // set-ups happened to run.
    let (untraced, traced) = phases(config, |trace, index, layers| {
        let t = Instant::now();
        let specs = scenario.session_specs().expect("the scenario validated");
        let end = Instant::now();
        if trace {
            log.record("setup.session_specs", t, end, None, Some(index));
        } else {
            setup_s.push((end - t).as_secs_f64());
        }
        let net = Network::with_parties(sites);
        let (er, record) = if trace {
            let timed = Timed::new(net.clone(), epoch);
            let er = engine_request(&timed, &specs);
            (er, Some(timed.take()))
        } else {
            (engine_request(&net, &specs), None)
        };
        let (verdicts, failure) = er.verdicts(&expected);
        let replay = match record {
            Some(record) => {
                let wait = net.wait_stats().unwrap_or_default();
                layers.add(
                    "net.wakeup_ratio",
                    ratio(wait.wakeups as f64, wait.blocking_waits as f64),
                );
                trace_engine_request(&mut log, index, &er, record, &specs, layers, &mut transit)
            }
            None => Ok(()),
        };
        RequestResult {
            latency_s: er.latency_s(),
            verdicts,
            failure,
            wire_bytes: net.report().total_bytes(),
            killed: false,
            replay,
        }
    });
    let traced = traced.map(|mut p| {
        (p.transit_ns, p.transit_unmatched) = transit;
        p
    });
    Ok(RunOutput {
        scenario_fingerprints: vec![scenario.fingerprint()],
        sessions_per_request: expected.len(),
        setup_s,
        untraced,
        traced,
        peak_rss_mib: sys::vm_hwm_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0,
        run_layers: Layers::default(),
        spans: log,
    })
}

/// The sealed single-transport federation `tcp_sealed_bulk` runs on.
struct SealedLink {
    router: TcpRouter,
    transport: TcpTransport,
}

impl SealedLink {
    /// Spawns the router and connects one sealed, coalescing transport
    /// hosting every party. Returns the link and the connect time.
    ///
    /// The router runs on the blocking backend; the transport on the
    /// default one. The reactor router can leave a connection paused for
    /// good (known defect 4 in the README), which hung this workload.
    fn open(scenario: &Scenario) -> Result<(Self, f64), String> {
        let (router, addr) =
            TcpRouter::spawn_with_backend("127.0.0.1:0", TransportBackend::Blocking)
                .map_err(|e| e.to_string())?;
        let mut transport = TcpTransport::new(scenario.parties());
        transport.set_security(ChannelKeyring::from_master(&scenario.master));
        transport.set_coalescing(true);
        let t = Instant::now();
        transport
            .connect(addr, &Backoff::default())
            .map_err(|e| e.to_string())?;
        Ok((SealedLink { router, transport }, t.elapsed().as_secs_f64()))
    }

    /// Shuts the transport and router down, returning the time taken.
    fn close(mut self) -> f64 {
        let t = Instant::now();
        self.transport.shutdown();
        self.router.shutdown();
        t.elapsed().as_secs_f64()
    }
}

fn sealing_delta(before: &SealingStats, after: &SealingStats) -> SealingStats {
    SealingStats {
        records_sealed: after.records_sealed - before.records_sealed,
        frames_sealed: after.frames_sealed - before.frames_sealed,
        plaintext_bytes: after.plaintext_bytes - before.plaintext_bytes,
        sealed_bytes: after.sealed_bytes - before.sealed_bytes,
        records_opened: after.records_opened - before.records_opened,
        frames_opened: after.frames_opened - before.frames_opened,
    }
}

/// One `tcp_sealed_bulk` set-up: trusted setup, router spawn, connect
/// and sealed handshake. Records the set-up and connect times.
fn tcp_setup(
    scenario: &Scenario,
    setup_s: &mut Vec<f64>,
    run_layers: &mut Layers,
    log: &mut SpanLog,
) -> Result<(Vec<SessionSpec>, SealedLink), String> {
    let t = Instant::now();
    let specs = scenario.session_specs()?;
    let (link, connect_s) = SealedLink::open(scenario)?;
    let end = Instant::now();
    log.record("setup.specs_router_connect", t, end, None, None);
    run_layers.add("net.connect_s", connect_s);
    setup_s.push((end - t).as_secs_f64());
    Ok((specs, link))
}

/// A [`tcp_setup`] whose link is closed again at once.
fn tcp_spare_setup(
    scenario: &Scenario,
    setup_s: &mut Vec<f64>,
    run_layers: &mut Layers,
    log: &mut SpanLog,
) -> Result<(), String> {
    let (_, spare) = tcp_setup(scenario, setup_s, run_layers, log)?;
    let t = Instant::now();
    run_layers.add("net.teardown_s", spare.close());
    log.record("setup.teardown", t, Instant::now(), None, None);
    Ok(())
}

/// `tcp_sealed_bulk`.
pub fn run_tcp(config: &RunConfig) -> Result<RunOutput, String> {
    let (scenario, expected) = scenario_and_oracle(config.workload, config.seed)?;
    let mut log = SpanLog::new();
    let mut run_layers = Layers::default();
    let mut setup_s = Vec::new();
    // Half the set-ups run before the requests and half after the link
    // they use is closed, so the median spans the run, for the reason
    // `run_inmem` gives. A set-up between requests would be closer to
    // `run_inmem`, but the extra links raised the process's peak RSS by
    // up to 55%.
    let before = SETUP_REPS / 2;
    for _ in 0..before {
        tcp_spare_setup(&scenario, &mut setup_s, &mut run_layers, &mut log)?;
    }
    let (specs, link) = tcp_setup(&scenario, &mut setup_s, &mut run_layers, &mut log)?;
    let transport = &link.transport;
    let epoch = log.epoch();
    let mut transit = (Vec::new(), 0);
    let timed = Timed::new(transport, epoch);

    let (untraced, traced) = phases(config, |trace, index, layers| {
        let sealing0 = transport.sealing_report().unwrap_or_default().total();
        let wait0 = transport.wait_stats();
        let delivery0 = transport.delivery_stats();
        let er = if trace {
            engine_request(&timed, &specs)
        } else {
            engine_request(transport, &specs)
        };
        let sealing = sealing_delta(
            &sealing0,
            &transport.sealing_report().unwrap_or_default().total(),
        );
        let (verdicts, failure) = er.verdicts(&expected);
        let mut replay = Ok(());
        if trace {
            let wait = transport.wait_stats();
            let delivery = transport.delivery_stats();
            net_socket_layers(layers, &sealing, &wait0, &wait, &delivery0, &delivery);
            replay = trace_engine_request(
                &mut log,
                index,
                &er,
                timed.take(),
                &specs,
                layers,
                &mut transit,
            )
            .and_then(|()| {
                let (seal_s, open_s) =
                    replay::aead(sealing.records_sealed, sealing.plaintext_bytes)?;
                layers.add("crypto.seal_replay_s", seal_s);
                layers.add("crypto.open_replay_s", open_s);
                Ok(())
            });
        }
        RequestResult {
            latency_s: er.latency_s(),
            verdicts,
            failure,
            wire_bytes: sealing.sealed_bytes,
            killed: false,
            replay,
        }
    });
    drop(timed);
    let t = Instant::now();
    let teardown_s = link.close();
    log.record("teardown", t, Instant::now(), None, None);
    for _ in before + 1..SETUP_REPS {
        tcp_spare_setup(&scenario, &mut setup_s, &mut run_layers, &mut log)?;
    }
    run_layers.add("net.teardown_s", teardown_s);
    let traced = traced.map(|mut p| {
        (p.transit_ns, p.transit_unmatched) = transit;
        p
    });
    Ok(RunOutput {
        scenario_fingerprints: vec![scenario.fingerprint()],
        sessions_per_request: expected.len(),
        setup_s,
        untraced,
        traced,
        peak_rss_mib: sys::vm_hwm_kib(std::process::id()).unwrap_or(0) as f64 / 1024.0,
        run_layers,
        spans: log,
    })
}

/// Socket-tier counters for one request, from the transport's own stats.
fn net_socket_layers(
    layers: &mut Layers,
    sealing: &SealingStats,
    wait0: &WaitStats,
    wait: &WaitStats,
    delivery0: &DeliveryStats,
    delivery: &DeliveryStats,
) {
    layers.add(
        "net.seal_overhead_ratio",
        ratio(sealing.sealed_bytes as f64, sealing.plaintext_bytes as f64),
    );
    layers.add("net.frames_per_record", sealing.frames_per_record());
    layers.add(
        "net.wakeup_ratio",
        ratio(
            (wait.wakeups - wait0.wakeups) as f64,
            (wait.blocking_waits - wait0.blocking_waits) as f64,
        ),
    );
    let hits = (delivery.pool_hits - delivery0.pool_hits) as f64;
    let misses = (delivery.pool_misses - delivery0.pool_misses) as f64;
    layers.add("net.pool_hit_ratio", ratio(hits, hits + misses));
    layers.add(
        "net.wake_signals",
        (delivery.wake_signals - delivery0.wake_signals) as f64,
    );
}
