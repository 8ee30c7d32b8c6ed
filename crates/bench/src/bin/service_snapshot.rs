//! Measures `abc-service` loopback ingestion throughput over both wire
//! protocols (v1 text, v2 binary) and writes a `BENCH_service.json`
//! snapshot (no serde — the JSON is assembled by hand), so the bench
//! trajectory of the service is tracked in-repo.
//!
//! ```text
//! cargo run --release -p abc-bench --bin service_snapshot [-- OUTPUT.json]
//! ```

use std::fmt::Write as _;
use std::time::Instant;

use abc_core::Xi;
use abc_rational::Ratio;
use abc_service::client::{feed_stream_binary, run_loadgen, LoadgenDoc};
use abc_service::feed_stream_text;
use abc_service::server::{start, ServerConfig};

fn docs(count: u64, events: usize) -> Vec<LoadgenDoc> {
    (0..count)
        .map(|s| {
            let trace = abc_bench::workloads::clocksync_trace(4, 1, 1, 4, 100 + s, events);
            LoadgenDoc {
                label: format!("doc{s}"),
                events: trace.events().len(),
                expect: None,
                binary: Some(trace.to_stream_binary()),
                text: trace.to_stream_text(),
            }
        })
        .collect()
}

struct ProtocolRow {
    protocol: &'static str,
    single_events: usize,
    single_eps: f64,
    eight_events: usize,
    eight_eps: f64,
    doc_p50_ms: f64,
    ack_p50_us: f64,
    events_per_ack: f64,
}

fn measure(addr: &str, xi: &Xi, binary: bool) -> ProtocolRow {
    let feed = |doc: &LoadgenDoc| {
        if binary {
            feed_stream_binary(addr, xi, doc.binary.as_deref().expect("encoded above"))
        } else {
            feed_stream_text(addr, xi, &doc.text)
        }
    };

    // Single session: one document on the BENCH_core workload size (10k
    // events — the monitor-rate reference point), best of 5 after warm-up.
    let single = docs(1, 10_000);
    let _ = feed(&single[0]).expect("warm-up feed");
    let mut best_single = f64::MAX;
    for _ in 0..9 {
        let t0 = Instant::now();
        let out = feed(&single[0]).expect("feed");
        assert!(!out.verdict.is_violation());
        best_single = best_single.min(t0.elapsed().as_secs_f64());
    }
    #[allow(clippy::cast_precision_loss)]
    let single_eps = single[0].events as f64 / best_single;

    // Eight concurrent sessions: 8 × 10k events, best of 3.
    let eight = docs(8, 10_000);
    let eight_events: usize = eight.iter().map(|d| d.events).sum();
    let _ = run_loadgen(addr, xi, &eight, 8, binary).expect("warm-up loadgen");
    let mut best_eight = f64::MAX;
    let (mut doc_p50_ms, mut ack_p50_us, mut events_per_ack) = (0.0, 0.0, 0.0);
    for _ in 0..3 {
        let report = run_loadgen(addr, xi, &eight, 8, binary).expect("loadgen");
        assert_eq!(report.violations, 0);
        let wall = report.wall.as_secs_f64();
        if wall < best_eight {
            best_eight = wall;
            doc_p50_ms = report.latency_percentiles.0.as_secs_f64() * 1e3;
            ack_p50_us = report.ack_latency_percentiles.0.as_secs_f64() * 1e6;
            events_per_ack = report.events_per_ack;
        }
    }
    #[allow(clippy::cast_precision_loss)]
    let eight_eps = eight_events as f64 / best_eight;

    ProtocolRow {
        protocol: if binary { "v2" } else { "v1" },
        single_events: single[0].events,
        single_eps,
        eight_events,
        eight_eps,
        doc_p50_ms,
        ack_p50_us,
        events_per_ack,
    }
}

/// Best-of-N single-session v2 feed rate against `addr` — the probe
/// behind the margin-tracking overhead row.
fn single_v2_eps(addr: &str, xi: &Xi, doc: &LoadgenDoc) -> f64 {
    let bytes = doc.binary.as_deref().expect("encoded above");
    let _ = feed_stream_binary(addr, xi, bytes).expect("warm-up feed");
    let mut best = f64::MAX;
    for _ in 0..9 {
        let t0 = Instant::now();
        let out = feed_stream_binary(addr, xi, bytes).expect("feed");
        assert!(!out.verdict.is_violation());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    #[allow(clippy::cast_precision_loss)]
    let eps = doc.events as f64 / best;
    eps
}

const USAGE: &str = "usage: service_snapshot [OUTPUT.json]   (default BENCH_service.json)";

fn main() {
    let out_path = abc_bench::snapshot_out_path(USAGE, "BENCH_service.json");
    let xi = Xi::from_integer(5);
    // Shards scale with the host (the server default); on a single-core
    // runner extra shard threads only add scheduler churn.
    let handle = start(ServerConfig::default()).expect("bind loopback server");
    let addr = handle.addr().to_string();

    // Two interleaved passes per protocol; keep each protocol's best. On
    // small shared hosts the noise floor moves on a seconds scale, so a
    // single consecutive pass can land one protocol entirely inside a
    // slow burst and skew the comparison.
    let passes = [
        measure(&addr, &xi, false),
        measure(&addr, &xi, true),
        measure(&addr, &xi, false),
        measure(&addr, &xi, true),
    ];
    let pick = |protocol: &str| {
        passes
            .iter()
            .filter(|r| r.protocol == protocol)
            .max_by(|a, b| a.single_eps.total_cmp(&b.single_eps))
            .expect("both protocols measured")
    };
    let rows = [pick("v1"), pick("v2")];

    // Margin-tracking overhead: the same single-session v2 feed against a
    // server with an active `--warn-margin` threshold the workload
    // crosses (margin reaches 3 against the 2 threshold). Every warn-gate
    // layer runs: doubling-gated per-event evaluations, cheap `O(live
    // arcs)` bound scans, the exact probe escalation, one warning flip
    // per document, and the margin gauge/histogram publishes. The gate
    // starts evaluating from the first event, so the threshold crossing
    // latches while the live window is small and the steady-state cost
    // of a tracked session is a flag check per event. Compared against
    // an untracked server measured back to back, not against the `rows`
    // number, so both sides see the same noise floor. (Pruned-monitor
    // margin signatures are a core-side cost with its own envelope in
    // BENCH_core; this row isolates the service-layer tracking path.)
    let tracked_handle = start(ServerConfig {
        warn_margin: Some(Ratio::from_integer(2)),
        ..ServerConfig::default()
    })
    .expect("bind tracked loopback server");
    let margin_doc = docs(1, 10_000);
    let untracked_eps = single_v2_eps(&addr, &xi, &margin_doc[0]);
    let tracked_eps = single_v2_eps(&tracked_handle.addr().to_string(), &xi, &margin_doc[0]);
    assert!(
        tracked_eps * 2.0 >= untracked_eps,
        "margin tracking overhead exceeds 2x: tracked {tracked_eps:.0} vs \
         untracked {untracked_eps:.0} events/s"
    );

    // Flight-recorder (tracing) overhead: the same single-session v2
    // feed with the recorder disabled vs enabled, on the same default
    // server, back to back. Two gates: (a) the enabled recorder keeps at
    // least 90% of the disabled rate, and (b) the two disabled-mode
    // measurements bracketing the enabled run agree within 2% — the
    // branch-on-disabled hooks are a flag check, so any larger delta is
    // measurement noise, and gate (a) would be meaningless on top of it.
    // Each leg keeps its best over all attempts — best-of converges to
    // the host's peak rate, so on a noisy shared runner the delta
    // shrinks with attempts instead of re-rolling a fresh comparison.
    // The document is 5x the reference size: at ~2M events/s a 10k feed
    // lasts ~5ms, inside scheduler-jitter scale, and no number of
    // retries stabilises a measurement shorter than the noise it rides.
    let tracing_doc = docs(1, 50_000);
    let (mut best_before, mut best_enabled, mut best_after) = (0.0f64, 0.0f64, 0.0f64);
    let mut tracing_attempts = 0;
    let (disabled_eps, enabled_eps, disabled_delta) = loop {
        tracing_attempts += 1;
        best_before = best_before.max(single_v2_eps(&addr, &xi, &tracing_doc[0]));
        abc_obs::enable(abc_obs::DEFAULT_RING_CAPACITY);
        best_enabled = best_enabled.max(single_v2_eps(&addr, &xi, &tracing_doc[0]));
        abc_obs::disable();
        abc_obs::reset();
        best_after = best_after.max(single_v2_eps(&addr, &xi, &tracing_doc[0]));
        let disabled = best_before.max(best_after);
        let delta = (best_before - best_after).abs() / disabled;
        if (best_enabled >= 0.90 * disabled && delta <= 0.02) || tracing_attempts >= 20 {
            assert!(
                best_enabled >= 0.90 * disabled,
                "recorder overhead exceeds 10%: enabled {best_enabled:.0} vs \
                 disabled {disabled:.0} events/s"
            );
            assert!(
                delta <= 0.02,
                "disabled-mode rate is not stable within 2% (delta {:.1}%): \
                 {best_before:.0} vs {best_after:.0} events/s",
                delta * 100.0
            );
            break (disabled, best_enabled, delta);
        }
    };

    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut json = format!(
        "{{\n  \"bench\": \"service\",\n  \"unit\": \"events_per_second\",\n  \
         \"hardware_threads\": {cores},\n  \"protocols\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            json,
            "    {{\n      \"protocol\": \"{}\",\n      \
             \"single_session_events\": {},\n      \
             \"single_session_events_per_sec\": {:.0},\n      \
             \"eight_session_events\": {},\n      \
             \"eight_session_events_per_sec\": {:.0},\n      \
             \"eight_session_doc_latency_p50_ms\": {:.2},\n      \
             \"eight_session_ack_latency_p50_us\": {:.1},\n      \
             \"events_per_ack\": {:.1}\n    }}{}\n",
            r.protocol,
            r.single_events,
            r.single_eps,
            r.eight_events,
            r.eight_eps,
            r.doc_p50_ms,
            r.ack_p50_us,
            r.events_per_ack,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    let _ = write!(
        json,
        "  ],\n  \"margin\": {{\n    \
         \"single_session_events\": {},\n    \
         \"tracked_v2_events_per_sec\": {:.0},\n    \
         \"untracked_v2_events_per_sec\": {:.0},\n    \
         \"tracked_fraction_of_untracked\": {:.2}\n  }},\n  \"tracing\": {{\n    \
         \"single_session_events\": {},\n    \
         \"recorder_enabled_v2_events_per_sec\": {:.0},\n    \
         \"recorder_disabled_v2_events_per_sec\": {:.0},\n    \
         \"enabled_fraction_of_disabled\": {:.2},\n    \
         \"disabled_mode_delta\": {:.3}\n  }}\n}}\n",
        margin_doc[0].events,
        tracked_eps,
        untracked_eps,
        tracked_eps / untracked_eps,
        tracing_doc[0].events,
        enabled_eps,
        disabled_eps,
        enabled_eps / disabled_eps,
        disabled_delta
    );
    std::fs::write(&out_path, &json).expect("write snapshot");
    print!("{json}");
    eprintln!("wrote {out_path}");
    tracked_handle.join();
    handle.join();
}
