//! `perfbench` — the federation's end-to-end and per-layer benchmark.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Generates the workload's scenario from `--seed`, computes the
//! in-process oracle, then runs requests back to back for `--seconds`,
//! checking every session against the oracle. The last stdout line is one
//! JSON object: with `--trace 0` the end-to-end metrics, with `--trace 1`
//! the per-layer metrics of a traced phase that follows an untraced one.
//! Generated files and the spans of traced runs go to `.bench_out/` in
//! the working directory. See `perfbench/README.md` for the workloads and
//! metrics.

mod metrics;
mod replay;
mod spans;
mod stats;
mod sys;
mod timed;
mod verify;
mod workloads;

use std::path::Path;

use workloads::{RunConfig, Workload};

/// Environment variables that select a different code path in the
/// program; a run refuses to start while either is set.
const PATH_SELECTORS: [&str; 2] = ["PPC_TRANSPORT", "PPC_DELIVERY"];

/// Where generated inputs and span files go, relative to the working
/// directory.
const OUT_DIR: &str = ".bench_out";

fn parse_args(args: &[String]) -> Result<RunConfig, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(&name).ok_or_else(|| {
                    let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload '{name}' (expected one of {names:?})")
                })?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
                })
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.ok_or("--seed is required")?;
    // The build puts `ppc-party` beside this binary.
    let mut party_bin = std::env::current_exe().map_err(|e| e.to_string())?;
    party_bin.set_file_name(format!("ppc-party{}", std::env::consts::EXE_SUFFIX));
    let work_dir =
        Path::new(OUT_DIR).join(format!("work-{}-{}", workload.name(), std::process::id()));
    Ok(RunConfig {
        workload,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        party_bin,
        work_dir,
    })
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    for var in PATH_SELECTORS {
        if std::env::var_os(var).is_some() {
            return Err(format!(
                "{var} is set; it selects a different code path than the one this benchmark \
                 measures. Unset it and rerun."
            ));
        }
    }
    let config = parse_args(args)?;
    let out = Path::new(OUT_DIR);
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let output = workloads::run(&config)?;
    metrics::report(&config, &output, out)
}
