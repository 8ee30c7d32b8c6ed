//! The repository benchmark: four workloads over the simulator, the trace
//! codecs, the incremental monitor and the ingest service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload ingest-v2 --seed 42 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer metrics of a separate traced run over the same inputs. The
//! last line of standard output is one JSON object; the lines before it
//! tag the result with the host and restate every metric with its unit.
//! See `README.md` beside this file for the workloads and metrics.

mod e2e;
mod inputs;
mod pipeline;
mod stats;
mod traced;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use inputs::{Inputs, Workload};
use stats::{highest_tail, median, ratio, Tally};

const USAGE: &str = "\
usage: perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]

  --workload NAME  ingest-v2 | ingest-v1-boundary | ingest-bounded | sweep
  --seed N         workload seed (default 42); the same seed gives the same inputs
  --seconds S      measured seconds of an end-to-end run (default 10)
  --trace 0|1      0: end-to-end metrics; 1: per-layer metrics of a traced run
  --help           print this text

The last line of standard output is a JSON object with the keys correct,
attempted, failed and metrics.";

/// Set-up is repeated up to this many times and its median reported...
const SETUP_REPEATS: usize = 5;
/// ...while another repetition, as long as the last one, still ends
/// within this many seconds (at least one runs).
const SETUP_BUDGET_S: f64 = 20.0;

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Its name in `BENCHMARK.json`.
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

impl Metric {
    fn new(name: &'static str, unit: &'static str, value: f64) -> Metric {
        Metric { name, unit, value }
    }
}

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Command {
    Help,
    Run(Args),
}

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Command, String> {
    let mut it = args.into_iter();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 42, 10.0, false);
    while let Some(flag) = it.next() {
        if flag == "--help" || flag == "-h" {
            return Ok(Command::Help);
        }
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && f64::is_finite(seconds)) {
                    return Err("--seconds must be positive".to_string());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Command::Run(Args {
        workload,
        seed,
        seconds,
        trace,
    }))
}

/// The host tags every result carries.
fn host_line(args: &Args, shards: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    format!(
        "host nproc={} cpu={cpu:?} rustc={:?} commit={} shards={shards} workload={} seed={} \
         pinned_trace_seeds={}..={}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        git_commit(),
        args.workload.name(),
        args.seed,
        inputs::LONG_DOC_SEED,
        inputs::LONG_DOC_SEED + 4,
    )
}

/// The checked-out commit, read from `.git` without running git; the
/// benchmark may run from an export that has no `.git`.
fn git_commit() -> String {
    let read = |p: &str| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(&format!(".git/{reference}"))
        .or_else(|| {
            read(".git/packed-refs")?.lines().find_map(|l| {
                l.strip_suffix(reference)?
                    .strip_suffix(' ')
                    .map(str::to_string)
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Renders the final result line.
fn result_json(tally: Tally, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        // Non-finite values cannot appear in JSON; they would mean a
        // division the metrics guard against.
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

/// Sets the workload up — generates and encodes its traces — repeatedly
/// when it is quick, then computes the reference verdicts once, untimed.
/// Returns the inputs, the seconds of each set-up, and the seconds the
/// references took.
fn timed_setup(args: &Args, repeats: usize) -> Result<(Inputs, Vec<f64>, f64), String> {
    let started = Instant::now();
    let mut times = Vec::new();
    let mut inputs = loop {
        let t = Instant::now();
        let inputs = inputs::generate(args.workload, args.seed);
        let last = t.elapsed().as_secs_f64();
        times.push(last);
        if times.len() >= repeats || started.elapsed().as_secs_f64() + last > SETUP_BUDGET_S {
            break inputs;
        }
    };
    let t = Instant::now();
    inputs::check_references(&mut inputs)?;
    Ok((inputs, times, t.elapsed().as_secs_f64()))
}

#[allow(clippy::cast_precision_loss)]
fn run(args: &Args) -> Result<(Tally, Vec<Metric>, Vec<String>), String> {
    let mut notes = Vec::new();
    if args.trace {
        let (inputs, _, _) = timed_setup(args, 1)?;
        let (layers, tally) = match &inputs {
            Inputs::Ingest(set) => traced::ingest(set, nproc())?,
            Inputs::Sweep(set) => traced::sweep(set)?,
        };
        notes.push(format!(
            "traced run: {} checks, fail_frac {}",
            tally.attempted,
            tally.fail_frac()
        ));
        return Ok((tally, layers.metrics(), notes));
    }

    let (inputs, setup_times, reference_s) = timed_setup(args, SETUP_REPEATS)?;
    let m = match &inputs {
        Inputs::Ingest(set) => e2e::ingest(set, args.seconds, nproc())?,
        Inputs::Sweep(set) => e2e::sweep(set, args.seconds, nproc())?,
    };
    let mut sorted = m.latencies_ms.clone();
    sorted.sort_by(f64::total_cmp);
    let unit = if matches!(inputs, Inputs::Sweep(_)) {
        "sweeps"
    } else {
        "documents"
    };
    notes.push(format!(
        "set-up: {} repetitions, seconds {:?}; simulator {:.1} ns/event; \
         reference verdicts {reference_s:.3} s (untimed)",
        setup_times.len(),
        setup_times,
        ratio(inputs.sim_ns(), inputs.sim_events() as f64)
    ));
    notes.push(format!(
        "latency over {} {unit}: p50 {:.3} ms{}",
        sorted.len(),
        median(&sorted),
        highest_tail(&sorted).map_or_else(
            || " (too few samples for a tail percentile)".to_string(),
            |(label, v)| format!(", {label} {v:.3} ms")
        )
    ));
    if let Inputs::Sweep(set) = &inputs {
        let runs = set.specs[0].total_runs() as f64 * sorted.len() as f64;
        notes.push(format!("sweep_runs_per_s {:.3} 1/s", ratio(runs, m.wall_s)));
    }
    notes.push(format!(
        "fail_frac {} ({} of {} failed)",
        m.tally.fail_frac(),
        m.tally.failed,
        m.tally.attempted
    ));
    let metrics = vec![
        Metric::new("events_per_s", "1/s", ratio(m.events as f64, m.wall_s)),
        Metric::new(
            "cpu_us_per_event",
            "us",
            ratio(m.cpu_s * 1e6, m.events as f64),
        ),
        Metric::new("doc_latency_p50_ms", "ms", median(&sorted)),
        Metric::new("setup_s", "s", median(&setup_times)),
    ];
    Ok((m.tally, metrics, notes))
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(Command::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(Command::Run(args)) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let shards = abc_service::server::ServerConfig::default().shards;
    match run(&args) {
        Ok((tally, metrics, notes)) => {
            println!("{}", host_line(&args, shards));
            for n in &notes {
                println!("{n}");
            }
            for m in &metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", result_json(tally, &metrics));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(args.iter().map(ToString::to_string))
    }

    #[test]
    fn arguments() {
        assert_eq!(
            parse(&[
                "--workload",
                "sweep",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1"
            ]),
            Ok(Command::Run(Args {
                workload: Workload::Sweep,
                seed: 7,
                seconds: 3.0,
                trace: true,
            }))
        );
        assert_eq!(parse(&["--help"]), Ok(Command::Help));
        assert_eq!(parse(&["--workload", "sweep", "-h"]), Ok(Command::Help));
        assert!(parse(&[]).is_err());
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--workload", "sweep", "--bogus"]).is_err());
        assert!(parse(&["--workload", "sweep", "--seed"]).is_err());
        assert!(parse(&["--workload", "sweep", "--trace", "2"]).is_err());
        assert!(parse(&["--workload", "sweep", "--seconds", "0"]).is_err());
    }

    #[test]
    fn result_line_shape() {
        let mut t = Tally::default();
        t.record(true);
        let line = result_json(t, &[Metric::new("setup_s", "s", 0.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        t.record(false);
        assert!(result_json(t, &[]).starts_with("{\"correct\": false"));
    }
}
