//! Differential test of the sweep's final margin at sweep scale.
//!
//! `sweep::monitor_trace` reads an admissible run's margin from the batch
//! `check::max_relevant_cycle_ratio` (whose decisions stop early once
//! their parent pointers close a cycle) and a violating run's from the
//! latched witness. The oracle is an independent code path: a pruning,
//! margin-tracking monitor fed the same trace under the ingest session's
//! watermark rule, whose `current_margin` comes from the windowed probes
//! over the live window and the boundary signatures. The runs are the
//! benchmark sweep's (clock sync n = 4, f = 1, `band:1:2..8..3`, Ξ = 4,
//! 1500 events), far beyond the ~130-event traces of `margin_proptests`.

use abc_core::monitor::IncrementalChecker;
use abc_core::{EventId, ProcessId, Xi};
use abc_harness::sweep::monitor_trace;
use abc_harness::{generate_trace, FaultPlan, Protocol, ScenarioSpec};
use abc_rational::Ratio;
use abc_sim::{RunLimits, Trace};

/// The session's prune horizon for this test (the benchmark's bounded
/// workload uses the same value).
const HORIZON: usize = 256;

fn spec(base_seed: u64) -> ScenarioSpec {
    ScenarioSpec {
        name: "sweep-margin-oracle".to_string(),
        protocol: Protocol::ClockSync { n: 4, f: 1 },
        delay: "band:1:2..8..3".parse().expect("valid delay grid"),
        faults: FaultPlan::none(),
        limits: RunLimits {
            max_events: 1500,
            max_time: u64::MAX,
        },
        xi: Xi::from_integer(4),
        runs_per_point: 2,
        base_seed,
        sim_workers: 1,
    }
}

/// Streams `trace` into a pruning, margin-tracking monitor, stopping at
/// the first latch like the sweep does. Pruning follows the ingest
/// session's rule: once more than `2·HORIZON` events are live, compact
/// below `HORIZON` events behind the frontier. In streaming order no
/// delivery is pending after an append, so the session's cap by the
/// oldest pending send never applies; the test asserts instead that no
/// later event names a pruned send, which the session would reject.
fn windowed_margin(trace: &Trace, xi: &Xi) -> Option<Ratio> {
    let events = trace.events();
    let messages = trace.messages();
    let mut suffix_min = vec![usize::MAX; events.len() + 1];
    for (idx, ev) in events.iter().enumerate().rev() {
        let named = ev.trigger.map_or(usize::MAX, |mi| messages[mi].send_event);
        suffix_min[idx] = named.min(suffix_min[idx + 1]);
    }
    let mut mon = IncrementalChecker::new(trace.num_processes(), xi).unwrap();
    mon.enable_pruning();
    mon.enable_margin_tracking();
    for p in 0..trace.num_processes() {
        if trace.is_faulty(ProcessId(p)) {
            mon.mark_faulty(ProcessId(p));
        }
    }
    let mut prunes = 0usize;
    for (idx, ev) in events.iter().enumerate() {
        match ev.trigger {
            None => {
                mon.append_init(ev.process);
            }
            Some(mi) => {
                mon.append_send(EventId(messages[mi].send_event), ev.process);
            }
        }
        if !mon.is_admissible() {
            break;
        }
        if mon.live_events() > 2 * HORIZON {
            let watermark = (idx + 1).saturating_sub(HORIZON);
            assert!(
                watermark <= suffix_min[idx + 1],
                "event {idx}: a later message names a send below the watermark {watermark}"
            );
            mon.prune_settled(Some(EventId(watermark)));
            prunes += 1;
        }
    }
    assert!(
        !mon.is_admissible() || prunes > 0,
        "an admissible 1500-event run must be pruned at least once"
    );
    mon.current_margin().unwrap().map(|m| m.ratio)
}

#[test]
fn sweep_margin_equals_the_windowed_probe_on_every_grid_point() {
    let mut admissible_with_margin = 0;
    for base_seed in [42, 7] {
        let spec = spec(base_seed);
        let points = spec.delay.points();
        assert_eq!(points.len(), 3);
        for run in 0..spec.total_runs() {
            let (trace, _) = generate_trace(&spec, &points, run);
            let (_, violation, margin) = monitor_trace(&trace, &spec.xi).unwrap();
            let oracle = windowed_margin(&trace, &spec.xi);
            assert_eq!(
                margin, oracle,
                "seed {base_seed}, run {run}: sweep margin vs the windowed probe"
            );
            if violation.is_none() && margin.is_some() {
                admissible_with_margin += 1;
            }
        }
    }
    assert!(
        admissible_with_margin > 0,
        "no admissible run formed a relevant cycle: the batch probe went unexercised"
    );
}
