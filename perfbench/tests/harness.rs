//! The benchmark's own checks, on a tiny configuration of every workload.

use tetriserve_perfbench::layers::Layer;
use tetriserve_perfbench::workload::synthetic;
use tetriserve_perfbench::{run, RunOptions, RunResult, Workload};

/// Small enough for a debug build, whose feasibility cross-checks are
/// deliberately quadratic.
const TINY: usize = 300;

fn tiny(workload: Workload, traced: bool) -> RunResult {
    run(RunOptions {
        workload,
        seed: 7,
        requests: TINY,
        traced,
        audit: traced,
    })
}

#[test]
fn wrappers_forward_faithfully() {
    for workload in Workload::ALL {
        let plain = tiny(workload, false);
        let traced = tiny(workload, true);
        let name = workload.name();
        assert_eq!(plain.routing_digest, traced.routing_digest, "{name}");
        assert_eq!(plain.outcome_digest, traced.outcome_digest, "{name}");
        assert_eq!(plain.sim, traced.sim, "{name}");
        assert_eq!(plain.counters, traced.counters, "{name}");
        assert!(plain.errors.is_empty(), "{name}: {:?}", plain.errors);
        assert!(traced.errors.is_empty(), "{name}: {:?}", traced.errors);
        assert!(plain.spans.is_none());

        let spans = traced.spans.expect("a traced run records spans");
        assert_eq!(spans.layer(Layer::Router).calls, TINY as u64, "{name}");
        assert!(spans.layer(Layer::Arrivals).calls > TINY as u64, "{name}");
        assert!(spans.layer(Layer::Scheduler).calls > 0, "{name}");
        assert!(spans.layer(Layer::Metrics).calls > 0, "{name}");
        assert_eq!(
            spans.schedule_call_s.len() as u64,
            spans.layer(Layer::Scheduler).calls
        );
        assert_eq!(spans.router_sheds as usize, traced.counters.fleet_shed);
    }
}

#[test]
fn layer_self_times_sum_to_the_wall_time() {
    for workload in Workload::ALL {
        let r = tiny(workload, true);
        let spans = r.spans.as_ref().expect("traced");
        let server = r.server_self_s().expect("traced");
        let wrapped: f64 = spans.layers.iter().map(|l| l.self_s).sum();
        // The wrapped spans lie inside the run window: the residual server
        // layer is non-negative up to the timer's resolution, and the five
        // layers add back up to the run's wall time.
        assert!(server >= -1e-6, "{}: server {server}", workload.name());
        assert!((wrapped + server - r.run_s).abs() < 1e-9);
        for l in &spans.layers {
            assert!(l.self_s >= 0.0 && l.self_s <= l.total_s + 1e-12);
        }
    }
}

#[test]
fn every_workload_passes_its_correctness_checks() {
    for workload in Workload::ALL {
        let r = tiny(workload, true);
        assert_eq!(r.audit_violations, Some(0), "{}", workload.name());
        assert_eq!(r.lost_requests, 0);
        assert_eq!(r.counters.outcomes, TINY);
        assert_eq!(r.counters.feas_grow_events, 0);
        assert!(r.sim.sar > 0.0 && r.sim.sar <= 1.0);
        assert!(r.sim.latency_samples > 0);
    }
}

#[test]
fn runs_repeat_per_seed() {
    let a = tiny(Workload::Tenants, false);
    let b = tiny(Workload::Tenants, false);
    assert_eq!(a.routing_digest, b.routing_digest);
    assert_eq!(a.outcome_digest, b.outcome_digest);
    assert_eq!(a.sim, b.sim);
}

#[test]
fn inputs_follow_the_seed() {
    assert_eq!(synthetic(3, 200, 1.0), synthetic(3, 200, 1.0));
    assert_ne!(synthetic(3, 200, 1.0), synthetic(4, 200, 1.0));
    let trace = synthetic(3, 200, 50.0);
    assert!(trace.windows(2).all(|w| w[0].arrival <= w[1].arrival));
}

#[test]
fn json_line_is_one_object() {
    let line = tiny(Workload::NearCapacity, true).to_json();
    assert!(line.starts_with('{') && line.ends_with('}'));
    assert!(!line.contains('\n'));
    for key in [
        "\"sim_req_per_s\"",
        "\"spans\"",
        "\"server_self_s\"",
        "\"errors\": []",
    ] {
        assert!(line.contains(key), "{key} missing from {line}");
    }
}
