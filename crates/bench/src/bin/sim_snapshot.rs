//! Measures the parallel simulation engine on the wide-ring workload
//! (64 processes, every discrete time steps all of them) and writes a
//! `BENCH_sim.json` snapshot (no serde — the JSON is assembled by hand):
//! one row per worker count (sequential, then 2/4/8 pool workers), with
//! wall-clock, throughput, and the speedup over the sequential engine.
//!
//! ```text
//! cargo run --release -p abc-bench --bin sim_snapshot [-- OUTPUT.json]
//! ```
//!
//! The run always asserts that every worker count produces a
//! **byte-identical trace** and identical engine stats (besides the
//! worker-shape fields themselves). The speedup assertion is
//! hardware-gated, mirroring `tests/sim_scaling.rs`: ≥2× at 8 workers on
//! ≥8 hardware threads, proportionally weaker bars below, and on a single
//! core only a no-collapse bound (a worker pool cannot beat physics).

use std::time::Instant;

use abc_bench::workloads;
use abc_sim::{RunLimits, RunStats, Trace};

const PROCESSES: usize = 64;
const SPINS: u32 = 2_000;
const EVENTS: usize = 20_000;

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

fn run_once(workers: usize) -> (Trace, RunStats) {
    let mut sim = workloads::wide_ring_sim(PROCESSES, SPINS, workers);
    let stats = sim.run(RunLimits {
        max_events: EVENTS,
        max_time: u64::MAX,
    });
    (sim.into_trace(), stats)
}

/// The stats fields that must agree across engines (the worker-shape
/// fields legitimately differ).
fn core_stats(mut s: RunStats) -> RunStats {
    s.sim_workers = 0;
    s.parallel_steps = 0;
    s.max_step_width = 0;
    s
}

const USAGE: &str = "usage: sim_snapshot [OUTPUT.json]   (default BENCH_sim.json)";

#[allow(clippy::cast_precision_loss)]
fn main() {
    let out_path = abc_bench::snapshot_out_path(USAGE, "BENCH_sim.json");
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let (seq_s, (seq_trace, seq_stats)) = best_of(3, || run_once(1));
    assert_eq!(seq_stats.events_executed, EVENTS, "budget not reached");
    let seq_text = seq_trace.to_text();

    let mut rows = vec![(1usize, seq_s, seq_stats)];
    let mut speedup_at = |workers: usize| -> f64 {
        let (par_s, (par_trace, par_stats)) = best_of(3, || run_once(workers));
        assert_eq!(
            seq_text,
            par_trace.to_text(),
            "trace bytes diverged at {workers} workers"
        );
        assert_eq!(core_stats(seq_stats), core_stats(par_stats));
        assert_eq!(par_stats.sim_workers, workers);
        assert!(par_stats.parallel_steps > 0);
        assert_eq!(
            par_stats.max_step_width, PROCESSES,
            "the wide ring must fill every batch"
        );
        rows.push((workers, par_s, par_stats));
        seq_s / par_s.max(1e-9)
    };
    let s2 = speedup_at(2);
    let s4 = speedup_at(4);
    let s8 = speedup_at(8);

    eprintln!(
        "wide-ring {PROCESSES}p/{EVENTS}ev: 1w {seq_s:.3}s, speedups 2w {s2:.2}x, \
         4w {s4:.2}x, 8w {s8:.2}x on {cores} hardware threads"
    );
    if cores >= 8 {
        assert!(
            s8 >= 2.0,
            "expected >=2x at 8 workers on {cores} hardware threads, got {s8:.2}x"
        );
    } else if cores >= 4 {
        assert!(s4 >= 1.3, "expected >=1.3x on {cores} cores, got {s4:.2}x");
    } else if cores >= 2 {
        assert!(
            s2 >= 1.05,
            "expected >=1.05x on {cores} cores, got {s2:.2}x"
        );
    } else {
        // Single hardware thread: no gain is possible; assert the pool's
        // rendezvous at least does not collapse under contention.
        assert!(
            s8 >= 0.25,
            "8-worker engine catastrophically slower than sequential on 1 core: {s8:.2}x"
        );
    }

    let row_json: Vec<String> = rows
        .iter()
        .map(|(workers, secs, stats)| {
            format!(
                "    {{\"workers\": {workers}, \"wall_ms\": {:.3}, \
                 \"events_per_sec\": {:.0}, \"speedup_vs_sequential\": {:.3}, \
                 \"parallel_steps\": {}, \"max_step_width\": {}}}",
                secs * 1e3,
                EVENTS as f64 / secs,
                seq_s / secs.max(1e-9),
                stats.parallel_steps,
                stats.max_step_width,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"sim\",\n  \"workload\": \"wide-ring n={PROCESSES} \
         spins={SPINS} {EVENTS} events\",\n  \"hardware_threads\": {cores},\n  \
         \"byte_identical_traces\": true,\n  \"rows\": [\n{}\n  ]\n}}\n",
        row_json.join(",\n"),
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
}
