//! The service's per-document work, rebuilt from the layers' public calls
//! in one thread so each stage can be timed from outside the program:
//! `FrameAssembler`/`RecordDecoder` or `LineAssembler`, then
//! `TraceLineParser`, then `IncrementalChecker::append_*` and
//! `prune_settled`, under the session's prune rule.
//!
//! The replay is generic over `TIMED`: the untimed instance compiles the
//! clock reads out, and the difference between the two is the tracing
//! overhead.

use std::collections::BTreeMap;
use std::time::Instant;

use abc_core::monitor::IncrementalChecker;
use abc_core::{EventId, ProcessId, Xi};
use abc_service::Verdict;
use abc_sim::{
    EventFeed, FrameAssembler, LineAssembler, ParsedLine, RecordDecoder, TraceLineParser,
    DEFAULT_MAX_FRAME_LEN, DEFAULT_MAX_LINE_LEN,
};

use crate::stats::Stages;

/// Bytes handed to the assemblers at a time, as a socket read would.
pub const CHUNK: usize = 64 * 1024;

/// The default server's cap on declared processes.
const MAX_PROCESSES: usize = 10_000;

/// How a document is replayed.
#[derive(Clone, Copy, Debug)]
pub struct Replay<'a> {
    /// The monitored `Ξ`.
    pub xi: &'a Xi,
    /// Bounded mode: prune as the session does with this horizon.
    pub prune_horizon: Option<usize>,
    /// Margin-signature tracking (consulted only in bounded mode).
    pub tracking: bool,
    /// Whether to run the monitor at all (off: codecs only).
    pub monitor: bool,
}

/// What a replay measured and counted, summed over documents.
#[derive(Clone, Debug, Default)]
pub struct Counters {
    /// Stage times (zero in untimed replays).
    pub stages: Stages,
    /// Time in appends whose relaxation count was nonzero.
    pub repair_ns: f64,
    /// Events parsed.
    pub events: u64,
    /// Events appended to a monitor.
    pub appended: u64,
    /// Wire bytes consumed.
    pub bytes: u64,
    /// Label relaxations over all appends.
    pub relaxations: u64,
    /// Appends that relaxed at least one label.
    pub repairs: u64,
    /// Largest relaxation count of a single append.
    pub max_relaxations_per_repair: u64,
    /// `prune_settled` calls.
    pub prunes: u64,
    /// Events those calls compacted.
    pub pruned_events: u64,
    /// Largest live-event high-water mark of any document's monitor.
    pub live_events_peak: u64,
    /// Per document length: append nanoseconds, events and relaxations.
    pub by_length: BTreeMap<usize, (f64, u64, u64)>,
}

fn now<const TIMED: bool>() -> Option<Instant> {
    TIMED.then(Instant::now)
}

#[allow(clippy::cast_precision_loss)]
fn between(a: Option<Instant>, b: Option<Instant>) -> f64 {
    match (a, b) {
        (Some(a), Some(b)) => b.duration_since(a).as_nanos() as f64,
        _ => 0.0,
    }
}

/// One document's parser and monitor state.
struct DocState<'a> {
    cfg: Replay<'a>,
    parser: TraceLineParser,
    monitor: Option<IncrementalChecker>,
    latched: Option<Verdict>,
    verdict: Option<Verdict>,
    append_ns: f64,
    relaxations: u64,
}

impl<'a> DocState<'a> {
    fn new(cfg: Replay<'a>, binary: bool) -> DocState<'a> {
        let parser = TraceLineParser::new_streaming().with_max_processes(MAX_PROCESSES);
        DocState {
            cfg,
            parser: if binary {
                parser.without_header()
            } else {
                parser
            },
            monitor: None,
            latched: None,
            verdict: None,
            append_ns: 0.0,
            relaxations: 0,
        }
    }

    /// Folds a monitor's final statistics into `c` as the session drops it.
    fn retire(mon: &IncrementalChecker, c: &mut Counters) {
        let stats = mon.stats();
        c.pruned_events += stats.pruned_events as u64;
        c.live_events_peak = c.live_events_peak.max(stats.live_events_peak as u64);
    }

    fn apply<const TIMED: bool>(
        &mut self,
        parsed: ParsedLine,
        c: &mut Counters,
    ) -> Result<(), String> {
        match parsed {
            ParsedLine::Meta | ParsedLine::Message { .. } => {}
            ParsedLine::Topology => {
                if self.cfg.monitor {
                    let (n, faulty) = self.parser.topology().ok_or("topology unavailable")?;
                    let mut mon =
                        IncrementalChecker::new(n, self.cfg.xi).map_err(|e| e.to_string())?;
                    if self.cfg.prune_horizon.is_some() {
                        mon.enable_pruning();
                        if self.cfg.tracking {
                            mon.enable_margin_tracking();
                        }
                    }
                    for (p, f) in faulty.iter().enumerate() {
                        if *f {
                            mon.mark_faulty(ProcessId(p));
                        }
                    }
                    self.monitor = Some(mon);
                }
            }
            ParsedLine::Event(feed) => {
                c.events += 1;
                if let Some(mon) = self.monitor.as_mut() {
                    let before = c.relaxations;
                    self.append_ns += append::<TIMED>(mon, feed, c)?;
                    self.relaxations += c.relaxations - before;
                    if let Some(summary) = mon.violation_summary() {
                        let seq = match feed {
                            EventFeed::Init { seq, .. } | EventFeed::Receive { seq, .. } => seq,
                        };
                        self.latched = Some(Verdict::Violation {
                            at_event: seq,
                            witness: summary.clone(),
                        });
                        // The session stops feeding a latched document.
                        DocState::retire(mon, c);
                        self.monitor = None;
                    } else if let Some(h) = self.cfg.prune_horizon {
                        if mon.live_events() > 2 * h.max(1) {
                            let watermark = watermark(&self.parser, h);
                            let t0 = now::<TIMED>();
                            mon.prune_settled(Some(EventId(watermark)));
                            c.stages.prune_ns += between(t0, now::<TIMED>());
                            c.prunes += 1;
                        }
                    }
                }
                if let Some(h) = self.cfg.prune_horizon {
                    let watermark = watermark(&self.parser, h);
                    self.parser.forget_events_below(watermark);
                }
            }
            ParsedLine::End => {
                if let Some(mon) = self.monitor.take() {
                    DocState::retire(&mon, c);
                }
                let events = self.parser.events_seen();
                let slot = c.by_length.entry(events).or_default();
                slot.0 += self.append_ns;
                slot.1 += events as u64;
                slot.2 += self.relaxations;
                self.verdict = Some(
                    self.latched
                        .take()
                        .unwrap_or(Verdict::Admissible { events }),
                );
            }
        }
        Ok(())
    }

    fn finish(self) -> Result<Verdict, String> {
        self.verdict
            .ok_or_else(|| "document ended without an `end` record".to_string())
    }
}

/// The session's honest prune watermark: `h` behind the frontier, capped
/// by the oldest declared but undelivered send.
fn watermark(parser: &TraceLineParser, h: usize) -> usize {
    let w = parser.events_seen().saturating_sub(h);
    parser
        .oldest_pending_send()
        .map_or(w, |oldest| w.min(oldest))
}

/// One monitor append, timed per call so repair can be split out by the
/// change in `stats().relaxations`. Returns the call's nanoseconds.
fn append<const TIMED: bool>(
    mon: &mut IncrementalChecker,
    feed: EventFeed,
    c: &mut Counters,
) -> Result<f64, String> {
    let before = if TIMED { mon.stats().relaxations } else { 0 };
    let t0 = now::<TIMED>();
    match feed {
        EventFeed::Init { process, .. } => {
            mon.append_init(process);
        }
        EventFeed::Receive {
            process,
            send_event,
            ..
        } => {
            let send = send_event.ok_or("unresolved send event in streaming mode")?;
            mon.append_send(EventId(send), process);
        }
    }
    let dt = between(t0, now::<TIMED>());
    c.appended += 1;
    if TIMED {
        let delta = mon.stats().relaxations - before;
        c.stages.append_ns += dt;
        c.relaxations += delta;
        if delta > 0 {
            c.repair_ns += dt;
            c.repairs += 1;
            c.max_relaxations_per_repair = c.max_relaxations_per_repair.max(delta);
        }
    }
    Ok(dt)
}

/// Replays one document's wire bytes (`binary`: v2 frames, else v1 text)
/// and returns its verdict, rendered as the service renders it.
///
/// # Errors
///
/// Any framing, parse or monitor error, as text.
pub fn replay<const TIMED: bool>(
    wire: &[u8],
    binary: bool,
    cfg: Replay<'_>,
    c: &mut Counters,
) -> Result<Verdict, String> {
    c.bytes += wire.len() as u64;
    let mut doc = DocState::new(cfg, binary);
    if binary {
        let mut frames = FrameAssembler::new(DEFAULT_MAX_FRAME_LEN);
        let mut decoder = RecordDecoder::new();
        let mut frame = Vec::new();
        let mut records = Vec::new();
        for chunk in wire.chunks(CHUNK) {
            let mut mark = now::<TIMED>();
            frames.push(chunk)?;
            while frames.next_frame_into(&mut frame)? {
                records.clear();
                decoder.decode_frame(&frame, &mut |r| {
                    records.push(r);
                    true
                })?;
                let decoded = now::<TIMED>();
                c.stages.decode_ns += between(mark, decoded);
                let inner = c.stages.append_ns + c.stages.prune_ns;
                for r in &records {
                    if let Some(rec) = r.to_trace_record() {
                        let parsed = doc.parser.feed_record(rec).map_err(|e| e.to_string())?;
                        doc.apply::<TIMED>(parsed, c)?;
                    }
                }
                mark = now::<TIMED>();
                c.stages.parse_ns +=
                    between(decoded, mark) - (c.stages.append_ns + c.stages.prune_ns - inner);
            }
        }
        frames.finish()?;
    } else {
        let mut lines = LineAssembler::new(DEFAULT_MAX_LINE_LEN);
        // `None` marks end of input, where a trailing unterminated line
        // completes.
        for chunk in wire.chunks(CHUNK).map(Some).chain([None]) {
            let t0 = now::<TIMED>();
            match chunk {
                Some(bytes) => lines.push(bytes),
                None => lines.finish(),
            }
            .map_err(|e| e.to_string())?;
            let split = now::<TIMED>();
            c.stages.split_ns += between(t0, split);
            let inner = c.stages.append_ns + c.stages.prune_ns;
            while let Some(line) = lines.next_line() {
                let parsed = doc.parser.feed_line(&line).map_err(|e| e.to_string())?;
                doc.apply::<TIMED>(parsed, c)?;
            }
            c.stages.parse_ns +=
                between(split, now::<TIMED>()) - (c.stages.append_ns + c.stages.prune_ns - inner);
        }
    }
    doc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::clocksync_trace;

    #[test]
    fn both_framings_and_both_instances_agree_with_the_offline_monitor() {
        let trace = clocksync_trace(7, 3_000);
        let xi = Xi::from_integer(5);
        let want = abc_service::offline_verdict(&trace, &xi).unwrap();
        let cfg = Replay {
            xi: &xi,
            prune_horizon: None,
            tracking: true,
            monitor: true,
        };
        let text = trace.to_stream_text();
        let bin = trace.to_stream_binary();
        let mut c = Counters::default();
        assert_eq!(replay::<true>(&bin, true, cfg, &mut c).unwrap(), want);
        assert_eq!(c.events, 3_000);
        assert_eq!(c.appended, 3_000);
        assert!(c.stages.decode_ns > 0.0 && c.stages.append_ns > 0.0);
        let mut u = Counters::default();
        assert_eq!(
            replay::<false>(text.as_bytes(), false, cfg, &mut u).unwrap(),
            want
        );
        assert_eq!(u.events, 3_000);
        assert_eq!(u.stages.total_ns(), 0.0);
        assert_eq!(c.by_length.get(&3_000).map(|v| v.1), Some(3_000));
        assert_eq!(c.by_length.get(&3_000).map(|v| v.2), Some(c.relaxations));
    }

    #[test]
    fn violations_latch_like_the_session() {
        let trace = clocksync_trace(7, 3_000);
        let xi = Xi::from_integer(2);
        let want = abc_service::offline_verdict(&trace, &xi).unwrap();
        assert!(want.is_violation());
        let cfg = Replay {
            xi: &xi,
            prune_horizon: Some(64),
            tracking: true,
            monitor: true,
        };
        let mut c = Counters::default();
        let got = replay::<true>(&trace.to_stream_binary(), true, cfg, &mut c).unwrap();
        assert_eq!(got.to_string(), want.to_string());
        assert!(c.appended < 3_000, "appends stop at the latch");
    }

    /// The replica's prune rule compacts exactly as many events as the
    /// server reports in `abc_service_monitor_pruned_events_total` for
    /// the same document. The server counts live sessions only, so the
    /// document is held open before its `end` while the status port is
    /// read.
    #[test]
    fn prune_replica_matches_the_server() {
        use std::io::{BufRead, BufReader, Write};

        let horizon = 256;
        let xi = Xi::from_integer(5);
        let trace = clocksync_trace(11, 8_000);
        let text = trace.to_stream_text();
        let body = text
            .strip_suffix("end\n")
            .expect("documents close with `end`");

        let mut replica = Counters::default();
        let cfg = Replay {
            xi: &xi,
            prune_horizon: Some(horizon),
            tracking: true,
            monitor: true,
        };
        replay::<false>(text.as_bytes(), false, cfg, &mut replica).unwrap();
        assert!(replica.pruned_events > 0, "the document must prune");

        let server = abc_service::server::start(abc_service::server::ServerConfig {
            prune_horizon: Some(horizon),
            ..abc_service::server::ServerConfig::default()
        })
        .unwrap();
        let mut stream = std::net::TcpStream::connect(server.addr()).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("abc-service"), "greeting {line:?}");
        let last = format!("ok {}", trace.events().len() - 1);
        let writer = {
            let mut w = stream.try_clone().unwrap();
            let doc = format!("xi {xi}\n{body}");
            std::thread::spawn(move || w.write_all(doc.as_bytes()).unwrap())
        };
        loop {
            line.clear();
            assert!(
                reader.read_line(&mut line).unwrap() > 0,
                "server closed early"
            );
            if line.trim_end() == last {
                break;
            }
        }
        writer.join().unwrap();
        let status =
            abc_service::client::status_command(&server.status_addr().to_string(), "prom").unwrap();
        let served: u64 = status
            .lines()
            .find_map(|l| l.strip_prefix("abc_service_monitor_pruned_events_total "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(served, replica.pruned_events);

        stream.write_all(b"end\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("end admissible"), "verdict {line:?}");
        drop(stream);
        server.request_stop();
        server.join();
    }
}
