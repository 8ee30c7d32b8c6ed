//! End-to-end runs, tracing off: a closed loop of `nproc` connections
//! against an in-process server, or back-to-back sweeps on `nproc`
//! threads, for at least the requested number of seconds.
//!
//! Besides wall time each run takes the process's CPU time (clients and
//! server share the process). On a virtual machine the hypervisor steals
//! a varying share of the wall clock; CPU time does not count it.

use std::time::Instant;

use abc_harness::{run_sweep, SweepOptions};
use abc_service::client::run_loadgen;
use abc_service::server::start;

use crate::inputs::{IngestSet, SweepSet};
use crate::stats::Tally;

/// What an end-to-end run measured.
#[derive(Debug, Default)]
pub struct Measured {
    /// Events behind verdicts that matched the reference.
    pub events: u64,
    /// Wall seconds of the measured rounds.
    pub wall_s: f64,
    /// Process CPU seconds (user and system, all threads) over the
    /// measured rounds.
    pub cpu_s: f64,
    /// Per-unit latency: first byte to verdict of a document, or one
    /// whole sweep.
    pub latencies_ms: Vec<f64>,
    /// Documents or sweep runs attempted and failed.
    pub tally: Tally,
}

/// Feeds the document set through `run_loadgen`, round after round
/// ([`IngestSet::round`]), until `seconds` have passed, after one
/// unmeasured warm-up round over the first `connections` documents.
///
/// # Errors
///
/// The server cannot start, or the warm-up round fails.
pub fn ingest(set: &IngestSet, seconds: f64, connections: usize) -> Result<Measured, String> {
    let server = start(set.server_config()).map_err(|e| format!("starting the server: {e}"))?;
    let addr = server.addr().to_string();
    let result = ingest_rounds(set, &addr, seconds, connections);
    server.request_stop();
    server.join();
    result
}

fn ingest_rounds(
    set: &IngestSet,
    addr: &str,
    seconds: f64,
    connections: usize,
) -> Result<Measured, String> {
    let warm = &set.docs[..connections.min(set.docs.len())];
    run_loadgen(addr, &set.xi, warm, connections, set.binary)
        .map_err(|e| format!("warm-up round: {e}"))?;
    let docs = set.round();
    let n = set.docs.len();
    let mut m = Measured::default();
    let cpu = process_cpu_s()?;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds {
        let round = Instant::now();
        let report = run_loadgen(addr, &set.xi, &docs, connections, set.binary);
        m.wall_s += round.elapsed().as_secs_f64();
        match report {
            Ok(report) => {
                for o in &report.outcomes {
                    let ok = set.matches(o.doc_index % n, &o.verdict);
                    m.tally.record(ok);
                    if ok {
                        m.events += o.events as u64;
                    }
                    m.latencies_ms.push(o.latency.as_secs_f64() * 1e3);
                }
                m.tally
                    .record_lost((docs.len() - report.outcomes.len()) as u64);
            }
            Err(e) => {
                eprintln!("load-generation round failed: {e}");
                m.tally.record_lost(docs.len() as u64);
            }
        }
    }
    m.cpu_s = process_cpu_s()? - cpu;
    Ok(m)
}

/// Runs the sweep specs in turn, each a full `run_sweep` on `threads`
/// workers, until every spec has run and `seconds` have passed.
///
/// # Errors
///
/// The process CPU clock is unreadable.
pub fn sweep(set: &SweepSet, seconds: f64, threads: usize) -> Result<Measured, String> {
    let mut m = Measured::default();
    let cpu = process_cpu_s()?;
    let started = Instant::now();
    for k in 0.. {
        if k >= set.specs.len() && started.elapsed().as_secs_f64() >= seconds {
            break;
        }
        let idx = k % set.specs.len();
        let spec = &set.specs[idx];
        let t = Instant::now();
        let report = run_sweep(
            spec,
            SweepOptions {
                threads,
                keep_violating_traces: false,
            },
        );
        let wall = t.elapsed().as_secs_f64();
        m.wall_s += wall;
        match report {
            Ok(report) => {
                for o in &report.outcomes {
                    let ok = o.violation.is_none() == set.admissible[idx][o.run_index];
                    m.tally.record(ok);
                    if ok {
                        m.events += o.stats.events_executed as u64;
                    }
                }
                m.tally
                    .record_lost((spec.total_runs() - report.outcomes.len()) as u64);
                m.latencies_ms.push(wall * 1e3);
            }
            Err(e) => {
                eprintln!("sweep failed: {e}");
                m.tally.record_lost(spec.total_runs() as u64);
            }
        }
    }
    m.cpu_s = process_cpu_s()? - cpu;
    Ok(m)
}

/// Clock ticks per second of `/proc/<pid>/stat` times: `USER_HZ`, fixed
/// at 100 by the Linux ABI.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used, every thread
/// (exited ones included) counted.
///
/// # Errors
///
/// `/proc/self/stat` is missing or malformed (not Linux).
pub fn process_cpu_s() -> Result<f64, String> {
    let stat = std::fs::read_to_string("/proc/self/stat")
        .map_err(|e| format!("reading /proc/self/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3;
    // utime and stime are fields 14 and 15.
    let after_comm = stat.rfind(')').map_or("", |i| &stat[i + 1..]);
    let ticks: Vec<u64> = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(str::parse)
        .collect::<Result<_, _>>()
        .map_err(|e| format!("malformed /proc/self/stat: {e}"))?;
    match ticks[..] {
        #[allow(clippy::cast_precision_loss)]
        [utime, stime] => Ok((utime + stime) as f64 / USER_HZ),
        _ => Err("truncated /proc/self/stat".to_string()),
    }
}
