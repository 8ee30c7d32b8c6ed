//! Measures the shared-traversal-core hot paths on the 10k-event clocksync
//! workload and writes a `BENCH_core.json` snapshot (no serde — the JSON is
//! assembled by hand), so the bench trajectory of `abc-core` is tracked
//! in-repo:
//!
//! * **batch check**: one `check::is_admissible` pass over the full
//!   execution graph (the seeded Bellman–Ford decision over the shared CSR
//!   [`abc_core::traversal::TraversalGraph`]);
//! * **streaming monitor**: all 10k events through
//!   [`Trace::replay_into_monitor`];
//! * **pruned streaming monitor**: the same stream through
//!   [`Trace::replay_into_monitor_bounded`], with the peak live-event count
//!   of both modes as the memory proxy.
//!
//! ```text
//! cargo run --release -p abc-bench --bin core_snapshot [-- OUTPUT.json]
//! ```
//!
//! When `ABC_BASELINE_BATCH_MS` is set (the pre-refactor batch-check time,
//! measured from the parent git revision in the same PR), it is embedded in
//! the snapshot and the run **asserts the refactor is faster**. The run
//! always asserts that pruning compacts most of the stream, cuts the live
//! window, keeps the streaming monitor within the documented CPU envelope
//! of the unpruned monitor, and reports identical verdicts.
//!
//! [`Trace::replay_into_monitor`]: abc_sim::Trace::replay_into_monitor
//! [`Trace::replay_into_monitor_bounded`]: abc_sim::Trace::replay_into_monitor_bounded

use std::time::Instant;

use abc_bench::workloads;
use abc_core::{check, Xi};

const EVENTS: usize = 10_000;
const PRUNE_EVERY: usize = 256;

fn best_of<R>(reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::MAX;
    let mut last = None;
    for _ in 0..reps {
        let t0 = Instant::now();
        let r = f();
        best = best.min(t0.elapsed().as_secs_f64());
        last = Some(r);
    }
    (best, last.expect("reps > 0"))
}

const USAGE: &str = "usage: core_snapshot [OUTPUT.json]   (default BENCH_core.json)";

#[allow(clippy::cast_precision_loss)]
fn main() {
    let out_path = abc_bench::snapshot_out_path(USAGE, "BENCH_core.json");
    // Band [1, 4] is admissible for Ξ = 5: no early exit via a latched
    // violation on either side.
    let xi = Xi::from_integer(5);
    let trace = workloads::clocksync_trace(4, 1, 1, 4, 42, EVENTS);
    let g = trace.to_execution_graph();
    assert_eq!(g.num_events(), EVENTS, "trace did not reach the budget");

    let (batch_s, admissible) = best_of(7, || check::is_admissible(&g, &xi).unwrap());
    assert!(admissible, "workload must be admissible");

    let (monitor_s, plain_stats) = best_of(5, || {
        let mon = trace.replay_into_monitor(&xi).unwrap();
        assert!(mon.is_admissible());
        mon.stats()
    });
    let (pruned_s, pruned_stats) = best_of(5, || {
        let mon = trace.replay_into_monitor_bounded(&xi, PRUNE_EVERY).unwrap();
        assert!(mon.is_admissible(), "pruned verdict must match");
        mon.stats()
    });
    assert!(
        pruned_stats.pruned_events > EVENTS / 2,
        "the bounded monitor must compact most of the stream, got {}",
        pruned_stats.pruned_events
    );
    assert!(
        pruned_stats.live_events_peak < plain_stats.live_events_peak / 4,
        "pruning must cut the live window: {} vs {}",
        pruned_stats.live_events_peak,
        plain_stats.live_events_peak
    );
    // Bounded memory costs CPU (boundary condensation per prune): keep the
    // overhead within the documented envelope (~4× at this cadence).
    assert!(
        pruned_s < monitor_s * 8.0,
        "pruning overhead out of bounds: {pruned_s:.4}s vs {monitor_s:.4}s"
    );

    let baseline_ms: Option<f64> = std::env::var("ABC_BASELINE_BATCH_MS")
        .ok()
        .and_then(|v| v.parse().ok());
    if let Some(base) = baseline_ms {
        assert!(
            batch_s * 1e3 < base,
            "batch check regressed: {:.3} ms vs pre-refactor {base:.3} ms",
            batch_s * 1e3
        );
    }

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let baseline_line = baseline_ms.map_or(String::new(), |b| {
        format!("  \"baseline_batch_check_ms\": {b:.3},\n")
    });
    let json = format!(
        "{{\n  \"bench\": \"core\",\n  \"workload\": \"clocksync n=4 band=[1,4] {EVENTS} events\",\n  \
         \"hardware_threads\": {cores},\n\
         {baseline_line}  \
         \"batch_check_ms\": {:.3},\n  \
         \"batch_check_events_per_sec\": {:.0},\n  \
         \"monitor_stream_events_per_sec\": {:.0},\n  \
         \"pruned_monitor_stream_events_per_sec\": {:.0},\n  \
         \"monitor_live_events_peak\": {},\n  \
         \"pruned_monitor_live_events_peak\": {},\n  \
         \"pruned_monitor_pruned_events\": {},\n  \
         \"prune_every\": {PRUNE_EVERY}\n}}\n",
        batch_s * 1e3,
        EVENTS as f64 / batch_s,
        EVENTS as f64 / monitor_s,
        EVENTS as f64 / pruned_s,
        plain_stats.live_events_peak,
        pruned_stats.live_events_peak,
        pruned_stats.pruned_events,
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
