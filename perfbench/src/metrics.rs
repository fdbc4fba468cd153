//! Metric definitions and the report: human-readable lines, the spans
//! file, and the final JSON line.

use std::io::Write;
use std::path::Path;

use crate::stats::{self, TailChoice};
use crate::workloads::{Phase, RunConfig, RunOutput, Workload};

/// `(name, unit, better)` of a metric.
pub type MetricDef = (&'static str, &'static str, &'static str);

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [MetricDef; 8] = [
    ("sessions_per_s", "1/s", "higher"),
    ("request_p50_s", "s", "lower"),
    ("request_tail_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("cpu_s_per_session", "s", "lower"),
    ("wire_bytes_per_session", "bytes", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
    ("oracle_identical_share", "ratio", "higher"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`
/// (0 where the workload does not exercise the layer; see the README).
pub const PER_LAYER: [MetricDef; 32] = [
    ("core.engine_run_s", "s", "lower"),
    ("core.engine_self_s", "s", "lower"),
    ("core.derive_s", "s", "lower"),
    ("core.fold_unmask_s", "s", "lower"),
    ("core.merge_s", "s", "lower"),
    ("core.derive_cache_hit_ratio", "ratio", "higher"),
    ("core.rounds", "count", "lower"),
    ("core.idle_parks", "count", "lower"),
    ("core.messages_sent", "count", "lower"),
    ("core.peak_buffered_rows", "rows", "lower"),
    ("core.decode_replay_s", "s", "lower"),
    ("cluster.fit_k_s", "s", "lower"),
    ("cluster.quality_s", "s", "lower"),
    ("crypto.seal_replay_s", "s", "lower"),
    ("crypto.open_replay_s", "s", "lower"),
    ("net.send_s", "s", "lower"),
    ("net.flush_s", "s", "lower"),
    ("net.recv_wait_s", "s", "lower"),
    ("net.recv_timeouts", "count", "lower"),
    ("net.try_receive_hit_ratio", "ratio", "higher"),
    ("net.transit_p50_us", "us", "lower"),
    ("net.transit_tail_us", "us", "lower"),
    ("net.payload_bytes", "bytes", "lower"),
    ("net.seal_overhead_ratio", "ratio", "lower"),
    ("net.frames_per_record", "ratio", "higher"),
    ("net.wakeup_ratio", "ratio", "higher"),
    ("net.pool_hit_ratio", "ratio", "higher"),
    ("net.wake_signals", "count", "lower"),
    ("net.connect_s", "s", "lower"),
    ("net.teardown_s", "s", "lower"),
    ("unattributed_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
];

/// Per-layer metrics only `proc_federation` exercises. That workload is
/// run by hand and is not listed in `BENCHMARK.json`, so these follow
/// [`PER_LAYER`] in its report and in no other.
pub const FEDERATION_LAYER: [MetricDef; 6] = [
    ("core.csv_parse_s", "s", "lower"),
    ("party.spawn_to_connected_s", "s", "lower"),
    ("party.run_s", "s", "lower"),
    ("party.teardown_s", "s", "lower"),
    ("party.children_cpu_s", "s", "lower"),
    ("party.deadline_kills", "count", "lower"),
];

/// The end-to-end values of one phase.
fn end_to_end(output: &RunOutput, phase: &Phase) -> (Vec<f64>, TailChoice) {
    let completed = phase.completed();
    let tail = stats::tail(&phase.latencies);
    let per_session = |v: f64, n: u64| if n == 0 { 0.0 } else { v / n as f64 };
    let values = vec![
        completed as f64 / phase.wall_s,
        stats::median(&phase.latencies),
        tail.value,
        stats::median(&output.setup_s),
        per_session(phase.cpu_s, completed.max(1)),
        per_session(phase.wire_bytes as f64, phase.wire_sessions),
        output.peak_rss_mib,
        per_session(completed as f64, phase.attempted),
    ];
    (values, tail)
}

/// The per-layer metrics `workload` reports.
pub fn layer_defs(workload: Workload) -> Vec<MetricDef> {
    let mut defs = PER_LAYER.to_vec();
    if workload == Workload::ProcFederation {
        defs.extend(FEDERATION_LAYER);
    }
    defs
}

/// The values of `defs` in the traced phase.
fn per_layer(output: &RunOutput, traced: &Phase, defs: &[MetricDef]) -> Vec<f64> {
    let transit_us: Vec<f64> = traced
        .transit_ns
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    defs.iter()
        .map(|&(name, _, _)| match name {
            "net.transit_p50_us" => stats::median(&transit_us),
            "net.transit_tail_us" => stats::tail(&transit_us).value,
            "party.deadline_kills" => {
                (output.untraced.deadline_kills + traced.deadline_kills) as f64
            }
            "trace.overhead_s" => {
                stats::median(&traced.latencies) - stats::median(&output.untraced.latencies)
            }
            _ if traced.layers.has(name) => traced.layers.median(name),
            _ => output.run_layers.median(name),
        })
        .collect()
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Renders the final result line.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(MetricDef, f64)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|((name, unit, _), v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn describe_phase(label: &str, output: &RunOutput, phase: &Phase) {
    let (values, tail) = end_to_end(output, phase);
    println!(
        "{label}: {} requests in {:.3} s; sessions attempted={} failed={} failed_session_share={:.4}",
        phase.latencies.len(),
        phase.wall_s,
        phase.attempted,
        phase.failed,
        if phase.attempted == 0 {
            0.0
        } else {
            phase.failed as f64 / phase.attempted as f64
        }
    );
    println!(
        "{label}: request_tail_s is p{} of {} requests ({} beyond{})",
        tail.percentile,
        tail.samples,
        tail.beyond,
        if tail.is_supported() {
            ""
        } else {
            "; fewer than ten, so this is the median"
        }
    );
    for ((name, unit, _), v) in END_TO_END.iter().zip(&values) {
        println!("{label}: {name} = {v} {unit}");
    }
    for (name, sessions) in &phase.known_defects {
        println!("{label}: known defect {name}: {sessions} sessions");
    }
    for failure in &phase.failures {
        println!("{label}: FAILED {failure}");
    }
}

/// Prints the report; the last line is the JSON result.
pub fn report(config: &RunConfig, output: &RunOutput, out: &Path) -> Result<(), String> {
    let spec = config.workload.spec(config.seed);
    println!(
        "provenance: workload={} seed={} cores={} commit={} scenario_fingerprints={} \
         sites={} objects={} sessions_per_request={} seconds={} trace={}",
        config.workload.name(),
        config.seed,
        crate::sys::cores(),
        crate::sys::git_commit(),
        output
            .scenario_fingerprints
            .iter()
            .map(|f| format!("{f:016x}"))
            .collect::<Vec<_>>()
            .join(","),
        spec.sites,
        spec.objects,
        output.sessions_per_request,
        config.seconds,
        u8::from(config.trace),
    );
    describe_phase("untraced", output, &output.untraced);
    let mut phases = vec![&output.untraced];
    let metrics: Vec<(MetricDef, f64)> = match &output.traced {
        None => {
            let (values, _) = end_to_end(output, &output.untraced);
            END_TO_END.iter().copied().zip(values).collect()
        }
        Some(traced) => {
            describe_phase("traced", output, traced);
            phases.push(traced);
            let defs = layer_defs(config.workload);
            let values = per_layer(output, traced, &defs);
            let overhead =
                stats::median(&traced.latencies) - stats::median(&output.untraced.latencies);
            println!(
                "tracing overhead: request p50 traced - untraced = {overhead} s ({:+.2}%)",
                100.0 * overhead / stats::median(&output.untraced.latencies).max(1e-12)
            );
            println!(
                "transit: {} envelopes matched send to receive, {} receives unmatched",
                traced.transit_ns.len(),
                traced.transit_unmatched
            );
            for ((name, unit, _), v) in defs.iter().zip(&values) {
                println!("layer: {name} = {v} {unit}");
            }
            let path = out.join(format!(
                "spans-{}-seed{}.jsonl",
                config.workload.name(),
                config.seed
            ));
            let mut file = std::io::BufWriter::new(
                std::fs::File::create(&path).map_err(|e| format!("{}: {e}", path.display()))?,
            );
            output
                .spans
                .write_jsonl(&mut file)
                .and_then(|()| file.flush())
                .map_err(|e| format!("{}: {e}", path.display()))?;
            println!(
                "spans: {} written to {}",
                output.spans.spans().len(),
                path.display()
            );
            defs.into_iter().zip(values).collect()
        }
    };
    let attempted: u64 = phases.iter().map(|p| p.attempted).sum();
    let failed: u64 = phases.iter().map(|p| p.failed).sum();
    let differed: u64 = phases.iter().map(|p| p.differed).sum();
    let replay_errors: u64 = phases.iter().map(|p| p.replay_errors).sum();
    let completed = attempted - failed;
    println!(
        "result: {completed} of {attempted} sessions identical to the oracle, {differed} differed \
         unexplained, {replay_errors} layer replays failed"
    );
    let correct = differed == 0 && replay_errors == 0 && completed > 0;
    println!("{}", result_json(correct, attempted, failed, &metrics));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let line = result_json(
            true,
            3,
            0,
            &[(END_TO_END[0], 1.25), (END_TO_END[1], f64::NAN)],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\
             \"sessions_per_s\": {\"value\": 1.25, \"unit\": \"1/s\"}, \
             \"request_p50_s\": {\"value\": 0, \"unit\": \"s\"}}}"
        );
    }

    /// `BENCHMARK.json` at the repository root lists exactly the metrics
    /// this binary reports, with the same units and directions.
    #[test]
    fn benchmark_json_matches_the_reported_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        for (name, unit, better) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry =
                format!("\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\": \"{better}\"");
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let listed = text.matches("\"better\"").count();
        assert_eq!(listed, END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            let entry = format!("\"name\": \"{}\"", w.name());
            let listed = w != Workload::ProcFederation;
            assert_eq!(text.contains(&entry), listed, "{entry}");
        }
    }
}
