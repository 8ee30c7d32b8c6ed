//! The four workloads: their generated inputs and the batch-checker
//! reference verdict of every document and sweep run.
//!
//! Every input is a function of the workload seed, except the 160k- and
//! 40k-event documents of `ingest-v1-boundary` (see [`LONG_DOC_SEED`]).

use std::time::Instant;

use abc_clocksync::TickGen;
use abc_core::check::is_admissible;
use abc_core::Xi;
use abc_harness::{generate_trace, FaultPlan, Protocol, ScenarioSpec};
use abc_service::client::LoadgenDoc;
use abc_service::server::ServerConfig;
use abc_service::{offline_verdict, Verdict};
use abc_sim::delay::BandDelay;
use abc_sim::{RunLimits, Simulation, Trace};

/// The trace seed of `ingest-v1-boundary`'s 160k-event document; its four
/// 40k-event documents use the next four seeds. Repair work at these
/// lengths is heavy-tailed over seeds (5.3M to 427M relaxations at 160k
/// events over ten consecutive seeds, and minutes of batch checking for
/// the worst), so seed-derived long documents would make the workload's
/// cost a lottery. Seed 42 sits in the typical 5M–9M band, with 7.3M
/// relaxations; seeds 43–46 relax 2.1M times over their 160k events. The
/// 10k-event documents, whose repair is cheap, come from the workload
/// seed.
pub const LONG_DOC_SEED: u64 = 42;

/// The batch checker's verdicts on the pinned documents, each recorded
/// with the digest of the document it was computed for. Near the
/// boundary the batch checker needs about 40 s for 160k events and 2–4 s
/// for 40k (2-vCPU Xeon VM), so reference checking reuses a recorded
/// verdict while the generated document still has its digest, and runs
/// the checker whenever the document differs.
const PINNED: [Recorded; 5] = [
    Recorded {
        trace_seed: LONG_DOC_SEED,
        events: 160_000,
        digest: 7_775_942_332_690_491_671,
        admissible: true,
    },
    Recorded {
        trace_seed: LONG_DOC_SEED + 1,
        events: 40_000,
        digest: 13_004_911_412_922_789_744,
        admissible: true,
    },
    Recorded {
        trace_seed: LONG_DOC_SEED + 2,
        events: 40_000,
        digest: 7_965_938_910_694_564_553,
        admissible: true,
    },
    Recorded {
        trace_seed: LONG_DOC_SEED + 3,
        events: 40_000,
        digest: 1_313_070_349_068_704_368,
        admissible: true,
    },
    Recorded {
        trace_seed: LONG_DOC_SEED + 4,
        events: 40_000,
        digest: 12_333_713_030_979_100_656,
        admissible: true,
    },
];

/// A batch-checker verdict recorded for one exact document.
struct Recorded {
    trace_seed: u64,
    events: usize,
    digest: u64,
    admissible: bool,
}

/// FNV-1a over a document's v2 encoding: identifies the exact document a
/// recorded verdict belongs to.
fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Sweep specs an end-to-end sweep run covers, at base seeds `seed`,
/// `seed + 1`, …. One grid's cost varies over base seeds with a
/// coefficient of variation near 9% (fewer latched violations mean more
/// full-length margin probes); averaging six cuts that to under 4%.
const SWEEP_SPECS: u64 = 6;

/// One benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Admissible v2 binary documents on the default (unpruned) server.
    IngestV2,
    /// Near-boundary v1 text documents of 10k, 40k and 160k events.
    IngestV1Boundary,
    /// v2 binary documents on a pruned server with margin tracking on.
    IngestBounded,
    /// `run_sweep` over a clock-sync delay grid.
    Sweep,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 4] = [
        Workload::IngestV2,
        Workload::IngestV1Boundary,
        Workload::IngestBounded,
        Workload::Sweep,
    ];

    /// The name `--workload` takes.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::IngestV2 => "ingest-v2",
            Workload::IngestV1Boundary => "ingest-v1-boundary",
            Workload::IngestBounded => "ingest-bounded",
            Workload::Sweep => "sweep",
        }
    }

    /// Looks a workload up by name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// The streams of an ingest workload, with their references once
/// [`check_references`] has run.
pub struct IngestSet {
    /// The `Ξ` every session selects.
    pub xi: Xi,
    /// Whether sessions speak the v2 binary framing (else v1 text).
    pub binary: bool,
    /// The server's prune horizon (`None`: unpruned).
    pub prune_horizon: Option<usize>,
    /// Times the document set repeats within one closed-loop round: short
    /// documents need longer rounds so that the connection set-up and
    /// ramp-down of each `run_loadgen` call stay a small share of it.
    pub round_repeats: usize,
    /// The documents in submission order, both encodings filled in and
    /// `expect` set from the batch reference.
    pub docs: Vec<LoadgenDoc>,
    /// Batch-checker verdict per document: admissible or not.
    pub admissible: Vec<bool>,
    /// The documents' traces.
    pub traces: Vec<Trace>,
    /// The trace seed of each document.
    pub trace_seeds: Vec<u64>,
    /// Nanoseconds spent simulating the traces.
    pub sim_ns: f64,
}

impl IngestSet {
    /// The server configuration the workload runs against: the default,
    /// plus the prune horizon (margin tracking stays at its default, on).
    #[must_use]
    pub fn server_config(&self) -> ServerConfig {
        ServerConfig {
            prune_horizon: self.prune_horizon,
            ..ServerConfig::default()
        }
    }

    /// The wire bytes of document `i` in the workload's framing.
    #[must_use]
    pub fn wire(&self, i: usize, binary: bool) -> &[u8] {
        let doc = &self.docs[i];
        if binary {
            doc.binary.as_deref().expect("setup encodes both framings")
        } else {
            doc.text.as_bytes()
        }
    }

    /// One closed-loop round: the document set, `round_repeats` times.
    /// Repeats carry only the framing the workload feeds.
    #[must_use]
    pub fn round(&self) -> Vec<LoadgenDoc> {
        let mut round = self.docs.clone();
        for _ in 1..self.round_repeats {
            round.extend(self.docs.iter().map(|d| LoadgenDoc {
                label: d.label.clone(),
                text: if self.binary {
                    String::new()
                } else {
                    d.text.clone()
                },
                binary: if self.binary { d.binary.clone() } else { None },
                events: d.events,
                expect: d.expect.clone(),
            }));
        }
        round
    }

    /// Total events over the document set.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.docs.iter().map(|d| d.events as u64).sum()
    }

    /// Whether `verdict` is the right answer for document `i`: the same
    /// kind as the batch checker's, and byte-identical to the expected
    /// rendering when one is known.
    #[must_use]
    pub fn matches(&self, i: usize, verdict: &Verdict) -> bool {
        let kind_ok = verdict.is_violation() != self.admissible[i];
        let text_ok = self.docs[i]
            .expect
            .as_ref()
            .is_none_or(|want| want.to_string() == verdict.to_string());
        kind_ok && text_ok
    }
}

/// The sweep specs of the sweep workload, with their references once
/// [`check_references`] has run.
pub struct SweepSet {
    /// The specs an end-to-end run cycles through.
    pub specs: Vec<ScenarioSpec>,
    /// Per spec, per run index: the run's trace.
    pub traces: Vec<Vec<Trace>>,
    /// Per spec, per run index: batch-checker verdict (admissible or not).
    pub admissible: Vec<Vec<bool>>,
    /// Nanoseconds spent simulating the runs.
    pub sim_ns: f64,
}

/// A workload's inputs.
pub enum Inputs {
    /// One of the three ingest workloads.
    Ingest(IngestSet),
    /// The sweep workload.
    Sweep(SweepSet),
}

impl Inputs {
    /// Simulated events behind the inputs.
    #[must_use]
    pub fn sim_events(&self) -> u64 {
        match self {
            Inputs::Ingest(set) => set.events(),
            Inputs::Sweep(set) => set
                .traces
                .iter()
                .flatten()
                .map(|t| t.events().len() as u64)
                .sum(),
        }
    }

    /// Nanoseconds spent simulating them.
    #[must_use]
    pub fn sim_ns(&self) -> f64 {
        match self {
            Inputs::Ingest(set) => set.sim_ns,
            Inputs::Sweep(set) => set.sim_ns,
        }
    }
}

/// splitmix64: derives independent per-document trace seeds from the
/// workload seed.
fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A clock-synchronization trace: n = 4, f = 1 (all correct), uniform
/// delays in [1, 4], exactly `events` events.
#[must_use]
pub fn clocksync_trace(trace_seed: u64, events: usize) -> Trace {
    let mut sim = Simulation::new(BandDelay::new(1, 4, trace_seed));
    for _ in 0..4 {
        sim.add_process(TickGen::new(4, 1));
    }
    sim.run(RunLimits {
        max_events: events,
        max_time: u64::MAX,
    });
    sim.into_trace()
}

/// The sweep spec of the sweep workload at `base_seed`: clock sync with
/// n = 4, f = 1, delays `band:1:2..8..3`, Ξ = 4, 1500 events per run,
/// 8 runs per grid point (24 runs).
///
/// # Panics
///
/// Never: the delay grid literal is valid.
fn sweep_spec(base_seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "perfbench-sweep".to_string(),
        protocol: Protocol::ClockSync { n: 4, f: 1 },
        delay: "band:1:2..8..3".parse().expect("valid delay grid"),
        faults: FaultPlan::none(),
        limits: RunLimits {
            max_events: 1500,
            max_time: u64::MAX,
        },
        xi: Xi::from_integer(4),
        runs_per_point: 8,
        base_seed,
        sim_workers: 1,
    }
}

/// Generates the workload's inputs from `seed`: the traces and their
/// wire encodings. This is the timed set-up; the reference verdicts come
/// after, from [`check_references`].
#[must_use]
pub fn generate(workload: Workload, seed: u64) -> Inputs {
    match workload {
        Workload::IngestV2 => {
            let plan = (0..16).map(|i| (mix(seed, i), 10_000)).collect::<Vec<_>>();
            Inputs::Ingest(ingest_set(&plan, Xi::from_integer(5), true, None, 8))
        }
        Workload::IngestV1Boundary => {
            // Equal event mass per length, longest first, so the closed
            // loop's connections stay busy to the end of each round.
            let mut plan: Vec<_> = PINNED.iter().map(|r| (r.trace_seed, r.events)).collect();
            plan.extend((0..16).map(|i| (mix(seed, i), 10_000)));
            Inputs::Ingest(ingest_set(&plan, Xi::from_integer(4), false, None, 1))
        }
        Workload::IngestBounded => {
            // Sixteen distinct documents: margin-tracking cost varies from
            // document to document, and one round of them fills a run.
            let plan = (0..16).map(|i| (mix(seed, i), 20_000)).collect::<Vec<_>>();
            Inputs::Ingest(ingest_set(&plan, Xi::from_integer(5), true, Some(256), 1))
        }
        Workload::Sweep => Inputs::Sweep(sweep_set(seed)),
    }
}

/// Computes the batch checker's verdict (`check::is_admissible` on
/// `Trace::to_execution_graph`) for every document and sweep run, and
/// the expected verdict text of every document.
///
/// # Errors
///
/// A checker error (only if `Ξ` were unmonitorable).
pub fn check_references(inputs: &mut Inputs) -> Result<(), String> {
    match inputs {
        Inputs::Ingest(set) => {
            for (i, trace) in set.traces.iter().enumerate() {
                let doc = &mut set.docs[i];
                let recorded = PINNED
                    .iter()
                    .find(|r| r.trace_seed == set.trace_seeds[i] && r.events == doc.events)
                    .filter(|r| doc.binary.as_deref().map(digest) == Some(r.digest))
                    .map(|r| r.admissible);
                let ok = match recorded {
                    Some(ok) => ok,
                    None => is_admissible(&trace.to_execution_graph(), &set.xi)
                        .map_err(|e| e.to_string())?,
                };
                // The batch checker decides the verdict; the monitor's
                // offline rendering only supplies the witness text of a
                // violation, and is used only when it agrees on the kind.
                doc.expect = if ok {
                    Some(Verdict::Admissible { events: doc.events })
                } else {
                    Some(offline_verdict(trace, &set.xi)?).filter(Verdict::is_violation)
                };
                set.admissible.push(ok);
            }
        }
        Inputs::Sweep(set) => {
            for (spec, traces) in set.specs.iter().zip(&set.traces) {
                let verdicts = traces
                    .iter()
                    .map(|t| is_admissible(&t.to_execution_graph(), &spec.xi))
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| e.to_string())?;
                set.admissible.push(verdicts);
            }
        }
    }
    Ok(())
}

fn ingest_set(
    plan: &[(u64, usize)],
    xi: Xi,
    binary: bool,
    prune_horizon: Option<usize>,
    round_repeats: usize,
) -> IngestSet {
    let mut set = IngestSet {
        xi,
        binary,
        prune_horizon,
        round_repeats,
        docs: Vec::with_capacity(plan.len()),
        admissible: Vec::with_capacity(plan.len()),
        traces: Vec::with_capacity(plan.len()),
        trace_seeds: plan.iter().map(|p| p.0).collect(),
        sim_ns: 0.0,
    };
    for &(trace_seed, events) in plan {
        let t = Instant::now();
        let trace = clocksync_trace(trace_seed, events);
        set.sim_ns += t.elapsed().as_secs_f64() * 1e9;
        set.docs.push(LoadgenDoc {
            label: format!("seed{trace_seed}/{events}"),
            text: trace.to_stream_text(),
            binary: Some(trace.to_stream_binary()),
            events: trace.events().len(),
            expect: None,
        });
        set.traces.push(trace);
    }
    set
}

fn sweep_set(seed: u64) -> SweepSet {
    let mut set = SweepSet {
        specs: Vec::new(),
        traces: Vec::new(),
        admissible: Vec::new(),
        sim_ns: 0.0,
    };
    for k in 0..SWEEP_SPECS {
        let spec = sweep_spec(seed.wrapping_add(k));
        let points = spec.delay.points();
        let t = Instant::now();
        let traces = (0..spec.total_runs())
            .map(|i| generate_trace(&spec, &points, i).0)
            .collect();
        set.sim_ns += t.elapsed().as_secs_f64() * 1e9;
        set.specs.push(spec);
        set.traces.push(traces);
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pinned_document_digests_match_the_recordings() {
        for r in &PINNED {
            let trace = clocksync_trace(r.trace_seed, r.events);
            assert_eq!(
                digest(&trace.to_stream_binary()),
                r.digest,
                "seed {}",
                r.trace_seed
            );
        }
    }

    /// Recomputes the recorded verdicts with the batch checker (about a
    /// minute in a release build): `cargo test --release -- --ignored`.
    #[test]
    #[ignore = "runs the batch checker on 320k events near the boundary"]
    fn recorded_verdicts_are_the_batch_checkers() {
        for r in &PINNED {
            let trace = clocksync_trace(r.trace_seed, r.events);
            let ok = is_admissible(&trace.to_execution_graph(), &Xi::from_integer(4)).unwrap();
            assert_eq!(ok, r.admissible, "seed {}", r.trace_seed);
        }
    }
}
