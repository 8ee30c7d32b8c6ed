//! The traced run: the workload's exact inputs driven through each layer's
//! public calls, timed from outside the program, plus the service-level
//! comparisons that put the layer times in context.
//!
//! Every per-layer metric is reported on every workload; a layer the
//! workload does not exercise reads 0.

use std::hint::black_box;
use std::time::Instant;

use abc_harness::generate_trace;
use abc_service::client::{feed_stream_binary, feed_stream_text, run_loadgen};
use abc_service::server::{start, ServerHandle};
use abc_service::Verdict;
use abc_sim::Trace;

use crate::inputs::{IngestSet, SweepSet};
use crate::pipeline::{replay, Counters, Replay};
use crate::stats::{ratio, Coverage, Tally};
use crate::Metric;

/// Everything the traced run measured, before normalisation.
#[derive(Debug, Default)]
pub struct Layers {
    /// The pass over the v2 binary framing.
    pub binary: Counters,
    /// The pass over the v1 text framing.
    pub text: Counters,
    /// Whether `binary` (else `text`) is the pass that ran the monitor.
    pub monitor_binary: bool,
    /// Simulator nanoseconds per generated event.
    pub sim_ns_per_event: f64,
    /// Bounded mode, untimed: tracking-on minus tracking-off nanoseconds
    /// per event.
    pub tracking_ns_per_event: f64,
    /// Milliseconds per `current_margin` call.
    pub margin_probe_ms: f64,
    /// Sweep: shares of the per-run time spent simulating, replaying and
    /// probing the margin.
    pub sim_share: f64,
    /// See [`Layers::sim_share`].
    pub replay_share: f64,
    /// See [`Layers::sim_share`].
    pub margin_share: f64,
    /// One-connection feed time the stage sum does not cover, per event.
    pub service_overhead_ns_per_event: f64,
    /// Server ingest time over wall time × shards in a closed-loop round.
    pub ingest_busy_frac: f64,
    /// Events per progress reply in that round.
    pub events_per_ack: f64,
    /// Stage sum over one-connection feed time.
    pub coverage: f64,
    /// Timed pipeline over untimed pipeline, minus one.
    pub trace_overhead_frac: f64,
}

impl Layers {
    fn monitor(&self) -> &Counters {
        if self.monitor_binary {
            &self.binary
        } else {
            &self.text
        }
    }

    /// The per-layer metrics, in `BENCHMARK.json` order.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub fn metrics(&self) -> Vec<Metric> {
        let per = |ns: f64, c: &Counters| ratio(ns, c.events as f64);
        let (b, t, m) = (&self.binary, &self.text, self.monitor());
        let appended = m.appended as f64;
        let by_length = |len: usize| {
            m.by_length
                .get(&len)
                .map_or((0.0, 0.0), |&(ns, events, relax)| {
                    (ratio(ns, events as f64), ratio(relax as f64, events as f64))
                })
        };
        let (a10, r10) = by_length(10_000);
        let (a40, r40) = by_length(40_000);
        let (a160, r160) = by_length(160_000);
        vec![
            Metric::new(
                "binio.decode_ns_per_event",
                "ns",
                per(b.stages.decode_ns, b),
            ),
            Metric::new("binio.bytes_per_event", "B", per(b.bytes as f64, b)),
            Metric::new(
                "textio.validate_ns_per_event",
                "ns",
                per(b.stages.parse_ns, b),
            ),
            Metric::new("textio.split_ns_per_event", "ns", per(t.stages.split_ns, t)),
            Metric::new("textio.parse_ns_per_event", "ns", per(t.stages.parse_ns, t)),
            Metric::new("textio.bytes_per_event", "B", per(t.bytes as f64, t)),
            Metric::new(
                "monitor.append_ns_per_event",
                "ns",
                ratio(m.stages.append_ns, appended),
            ),
            Metric::new(
                "monitor.repair_ns_per_event",
                "ns",
                ratio(m.repair_ns, appended),
            ),
            Metric::new("monitor.append_ns_per_event.10k", "ns", a10),
            Metric::new("monitor.append_ns_per_event.40k", "ns", a40),
            Metric::new("monitor.append_ns_per_event.160k", "ns", a160),
            Metric::new(
                "monitor.relaxations_per_event",
                "count",
                ratio(m.relaxations as f64, appended),
            ),
            Metric::new("monitor.relaxations_per_event.10k", "count", r10),
            Metric::new("monitor.relaxations_per_event.40k", "count", r40),
            Metric::new("monitor.relaxations_per_event.160k", "count", r160),
            Metric::new(
                "monitor.repairs_per_kevent",
                "count",
                ratio(m.repairs as f64 * 1e3, appended),
            ),
            Metric::new(
                "monitor.relaxations_per_repair_max",
                "count",
                m.max_relaxations_per_repair as f64,
            ),
            Metric::new(
                "monitor.prune_ns_per_event",
                "ns",
                ratio(m.stages.prune_ns, appended),
            ),
            Metric::new(
                "monitor.prunes_per_kevent",
                "count",
                ratio(m.prunes as f64 * 1e3, appended),
            ),
            Metric::new(
                "monitor.live_events_peak",
                "count",
                m.live_events_peak as f64,
            ),
            Metric::new(
                "monitor.tracking_ns_per_event",
                "ns",
                self.tracking_ns_per_event,
            ),
            Metric::new("monitor.margin_probe_ms", "ms", self.margin_probe_ms),
            Metric::new("sim.ns_per_event", "ns", self.sim_ns_per_event),
            Metric::new("sweep.margin_share", "frac", self.margin_share),
            Metric::new("sweep.replay_share", "frac", self.replay_share),
            Metric::new("sweep.sim_share", "frac", self.sim_share),
            Metric::new(
                "service.overhead_ns_per_event",
                "ns",
                self.service_overhead_ns_per_event,
            ),
            Metric::new("service.ingest_busy_frac", "frac", self.ingest_busy_frac),
            Metric::new("service.events_per_ack", "count", self.events_per_ack),
            Metric::new("stages.coverage", "frac", self.coverage),
            Metric::new("trace.overhead_frac", "frac", self.trace_overhead_frac),
        ]
    }
}

/// The timed and untimed pipeline passes alternate until the timed ones
/// have run this long, so short document sets still give a steady ratio.
const MIN_PASS_NS: f64 = 2e9;

/// Runs `f` and returns its wall nanoseconds.
#[allow(clippy::cast_precision_loss)]
fn wall_ns(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos() as f64
}

/// Alternates `timed` and `untimed` passes until the timed ones add up to
/// [`MIN_PASS_NS`]; returns both wall sums and the number of pairs.
fn alternate(mut timed: impl FnMut(), mut untimed: impl FnMut()) -> (f64, f64, f64) {
    let (mut t, mut u, mut pairs) = (0.0, 0.0, 0.0);
    while t < MIN_PASS_NS {
        t += wall_ns(&mut timed);
        u += wall_ns(&mut untimed);
        pairs += 1.0;
    }
    (t, u, pairs)
}

/// The `abc_service_ingest_seconds` histogram sum: seconds the shards
/// spent parsing and checking ingested batches.
fn ingest_seconds(server: &ServerHandle) -> Result<f64, String> {
    let text = server.metrics().render_prometheus();
    text.lines()
        .find_map(|l| l.strip_prefix("abc_service_ingest_seconds_sum "))
        .ok_or("no abc_service_ingest_seconds_sum in the exposition")?
        .trim()
        .parse()
        .map_err(|e| format!("abc_service_ingest_seconds_sum: {e}"))
}

/// Replays every document through the pipeline. With the monitor on,
/// each verdict is checked with `ok`; a codec-only pass checks that the
/// document parses.
fn replay_all<const TIMED: bool>(
    wires: &[&[u8]],
    binary: bool,
    cfg: Replay<'_>,
    ok: &dyn Fn(usize, &Verdict) -> bool,
    c: &mut Counters,
    tally: &mut Tally,
) {
    for (i, wire) in wires.iter().enumerate() {
        match replay::<TIMED>(wire, binary, cfg, c) {
            Ok(v) => tally.record(!cfg.monitor || ok(i, &v)),
            Err(e) => {
                eprintln!("replay of document {i} failed: {e}");
                tally.record(false);
            }
        }
    }
}

/// The pipeline passes shared by every workload: the monitor pass in the
/// workload's framing, timed and untimed, then the other framing with
/// codecs only. Fills the codec and monitor counters (summed over the
/// timed passes) and the tracing overhead; returns the untimed
/// nanoseconds per pass and the number of timed passes.
fn pipeline_passes(
    layers: &mut Layers,
    binaries: &[&[u8]],
    texts: &[&[u8]],
    cfg: Replay<'_>,
    ok: &dyn Fn(usize, &Verdict) -> bool,
    tally: &mut Tally,
) -> (f64, f64) {
    let (own, other) = if layers.monitor_binary {
        (binaries, texts)
    } else {
        (texts, binaries)
    };
    let binary = layers.monitor_binary;
    let (mut timed, mut untimed) = (Counters::default(), Counters::default());
    let (mut timed_tally, mut untimed_tally) = (Tally::default(), Tally::default());
    let (timed_ns, untimed_ns, pairs) = alternate(
        || replay_all::<true>(own, binary, cfg, ok, &mut timed, &mut timed_tally),
        || replay_all::<false>(own, binary, cfg, ok, &mut untimed, &mut untimed_tally),
    );
    tally.absorb(timed_tally);
    tally.absorb(untimed_tally);
    layers.trace_overhead_frac = ratio(timed_ns, untimed_ns) - 1.0;
    let codecs = Replay {
        monitor: false,
        ..cfg
    };
    let mut codec = Counters::default();
    replay_all::<true>(other, !binary, codecs, ok, &mut codec, tally);
    if binary {
        (layers.binary, layers.text) = (timed, codec);
    } else {
        (layers.binary, layers.text) = (codec, timed);
    }
    (untimed_ns / pairs, pairs)
}

/// The traced run of an ingest workload.
///
/// # Errors
///
/// The server cannot start, or its metrics exposition lacks the ingest
/// histogram.
#[allow(clippy::cast_precision_loss)]
pub fn ingest(set: &IngestSet, connections: usize) -> Result<(Layers, Tally), String> {
    let mut tally = Tally::default();
    let events = set.events();
    let mut layers = Layers {
        monitor_binary: set.binary,
        sim_ns_per_event: ratio(set.sim_ns, events as f64),
        ..Layers::default()
    };
    let cfg = Replay {
        xi: &set.xi,
        prune_horizon: set.prune_horizon,
        tracking: true,
        monitor: true,
    };
    let ok = |i: usize, v: &Verdict| set.matches(i, v);
    let n = set.docs.len();
    let binaries: Vec<&[u8]> = (0..n).map(|i| set.wire(i, true)).collect();
    let texts: Vec<&[u8]> = (0..n).map(|i| set.wire(i, false)).collect();
    let (untimed_pass_ns, passes) =
        pipeline_passes(&mut layers, &binaries, &texts, cfg, &ok, &mut tally);
    if set.prune_horizon.is_some() {
        let off = Replay {
            tracking: false,
            ..cfg
        };
        let own = if set.binary { &binaries } else { &texts };
        let mut scratch = Counters::default();
        let off_ns =
            wall_ns(|| replay_all::<false>(own, set.binary, off, &ok, &mut scratch, &mut tally));
        layers.tracking_ns_per_event = ratio(untimed_pass_ns - off_ns, events as f64);
    }

    // The service: one connection per document, then one closed-loop
    // round of the whole set.
    let config = set.server_config();
    let shards = config.shards;
    let server = start(config).map_err(|e| format!("starting the server: {e}"))?;
    let addr = server.addr().to_string();
    let mut feed_ns = 0.0;
    for (i, doc) in set.docs.iter().enumerate() {
        let fed = if set.binary {
            feed_stream_binary(&addr, &set.xi, set.wire(i, true))
        } else {
            feed_stream_text(&addr, &set.xi, &doc.text)
        };
        match fed {
            Ok(out) => {
                feed_ns += out.latency.as_nanos() as f64;
                tally.record(set.matches(i, &out.verdict));
            }
            Err(e) => {
                eprintln!("one-connection feed of document {i} failed: {e}");
                tally.record(false);
            }
        }
    }
    let busy_before = ingest_seconds(&server);
    let t = Instant::now();
    let round = run_loadgen(&addr, &set.xi, &set.docs, connections, set.binary);
    let round_s = t.elapsed().as_secs_f64();
    let busy_after = ingest_seconds(&server);
    server.request_stop();
    server.join();
    match round {
        Ok(report) => {
            for o in &report.outcomes {
                tally.record(set.matches(o.doc_index, &o.verdict));
            }
            tally.record_lost((n - report.outcomes.len()) as u64);
            layers.events_per_ack = report.events_per_ack;
        }
        Err(e) => {
            eprintln!("closed-loop round failed: {e}");
            tally.record_lost(n as u64);
        }
    }
    layers.ingest_busy_frac = ratio(busy_after? - busy_before?, round_s * shards as f64);
    let own = if set.binary {
        &layers.binary
    } else {
        &layers.text
    };
    // The stage counters sum `passes` replays of the set; the feeds ran
    // it once.
    let cover = Coverage::of(
        &own.stages,
        layers.trace_overhead_frac,
        feed_ns * passes,
        own.events,
    );
    layers.coverage = cover.coverage;
    layers.service_overhead_ns_per_event = cover.overhead_ns_per_event;
    Ok((layers, tally))
}

/// The traced run of the sweep workload, over the first spec's runs: each
/// run's simulation, replay and final margin probe timed as `run_sweep`
/// performs them, then the runs' traces through the codec and monitor
/// pipeline.
///
/// # Errors
///
/// A monitor error (only if `Ξ` were unmonitorable).
#[allow(clippy::cast_precision_loss)]
pub fn sweep(set: &SweepSet) -> Result<(Layers, Tally), String> {
    let mut tally = Tally::default();
    let spec = &set.specs[0];
    let admissible = &set.admissible[0];
    let points = spec.delay.points();
    let (mut sim_ns, mut replay_ns, mut margin_ns, mut events) = (0.0, 0.0, 0.0, 0u64);
    for (i, &ok) in admissible.iter().enumerate() {
        let t = Instant::now();
        let (trace, _) = generate_trace(spec, &points, i);
        sim_ns += t.elapsed().as_nanos() as f64;
        events += trace.events().len() as u64;
        let t = Instant::now();
        let (mon, at) = trace
            .replay_into_monitor_until_violation(&spec.xi)
            .map_err(|e| e.to_string())?;
        replay_ns += t.elapsed().as_nanos() as f64;
        let t = Instant::now();
        black_box(mon.current_margin().map_err(|e| e.to_string())?);
        margin_ns += t.elapsed().as_nanos() as f64;
        tally.record(at.is_none() == ok);
    }
    let total = sim_ns + replay_ns + margin_ns;
    let mut layers = Layers {
        monitor_binary: true,
        sim_ns_per_event: ratio(sim_ns, events as f64),
        margin_probe_ms: ratio(margin_ns / 1e6, admissible.len() as f64),
        sim_share: ratio(sim_ns, total),
        replay_share: ratio(replay_ns, total),
        margin_share: ratio(margin_ns, total),
        ..Layers::default()
    };
    let bins: Vec<Vec<u8>> = set.traces[0].iter().map(Trace::to_stream_binary).collect();
    let texts: Vec<String> = set.traces[0].iter().map(Trace::to_stream_text).collect();
    let bins: Vec<&[u8]> = bins.iter().map(Vec::as_slice).collect();
    let texts: Vec<&[u8]> = texts.iter().map(String::as_bytes).collect();
    let cfg = Replay {
        xi: &spec.xi,
        prune_horizon: None,
        tracking: true,
        monitor: true,
    };
    let ok = |i: usize, v: &Verdict| v.is_violation() != admissible[i];
    pipeline_passes(&mut layers, &bins, &texts, cfg, &ok, &mut tally);
    Ok((layers, tally))
}
