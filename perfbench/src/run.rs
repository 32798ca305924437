//! One measured run: set up, simulate on the serial driver, compute the
//! report, then check it outside the timed region.

use std::fmt::Write as _;
use std::time::Instant;

use tetriserve_core::audit::audit;
use tetriserve_core::PoolLayout;
use tetriserve_fleet::{ArrivalSource, DeadlineAwareRouter, FleetCluster, FleetSim, Router};
use tetriserve_metrics::{
    pool_utilization, sar, stage_slo_share, tenant_summaries, worst_tenant_sar, FleetReport,
    LatencySummary,
};

use crate::layers::{self, maybe_span, Layer, Spans, TracedPolicy, TracedRouter, TracedSource};
use crate::probe;
use crate::workload::{self, Workload, SCRATCH_WARM};

/// What one run does.
#[derive(Debug, Clone, Copy)]
pub struct RunOptions {
    /// The workload.
    pub workload: Workload,
    /// The input seed.
    pub seed: u64,
    /// Requests generated.
    pub requests: usize,
    /// Wrap the program's seams and record spans.
    pub traced: bool,
    /// Audit every cluster's trace after the run (never timed).
    pub audit: bool,
}

/// The simulated-time metrics: a pure function of the inputs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimMetrics {
    /// SLO-met requests / requests generated.
    pub sar: f64,
    /// SLO-met completions per simulated second.
    pub goodput_rps: f64,
    /// Median completed-request latency from the scheduled arrival.
    pub latency_p50_s: f64,
    /// 99th-percentile completed-request latency.
    pub latency_p99_s: f64,
    /// Completed requests the latency percentiles were taken over.
    pub latency_samples: usize,
    /// Lowest per-tenant SAR.
    pub worst_tenant_sar: f64,
    /// (shed + failed + never completed) / generated.
    pub unserved_frac: f64,
    /// Mean busy fraction of the disaggregated encode pools (0 if none).
    pub encode_util: f64,
    /// Mean busy fraction of the disaggregated decode pools (0 if none).
    pub decode_util: f64,
    /// Mean share of the SLO budget completed requests spent decoding.
    pub decode_slo_share: f64,
}

/// Fleet counters read from the report after the timed region.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events processed across all clusters.
    pub events: u64,
    /// EDF feasibility scans across all clusters.
    pub feas_calls: u64,
    /// Feasibility-scratch growths after warm-up (must be 0).
    pub feas_grow_events: u64,
    /// Requests shed by cluster admission control.
    pub admission_shed: usize,
    /// Requests shed by the router before reaching any cluster.
    pub fleet_shed: usize,
    /// High-water mark of the fleet-wide live backlog.
    pub peak_backlog: usize,
    /// Outcomes in the fleet report.
    pub outcomes: usize,
    /// Trace events recorded across all clusters.
    pub trace_events: usize,
}

/// The result of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The options the run used.
    pub options: RunOptions,
    /// Host seconds of the host-speed probe, timed just before set-up.
    pub probe_s: f64,
    /// Host seconds before the first simulated event: cost tables,
    /// policies, fleet build, scratch warm-up, any pre-generated trace.
    pub setup_s: f64,
    /// Host seconds from the first simulated event to the computed report.
    pub run_s: f64,
    /// Requests / `run_s`.
    pub sim_req_per_s: f64,
    /// Seconds the process was runnable but waiting for a CPU during the
    /// measured region (`/proc/self/schedstat`).
    pub runq_wait_s: f64,
    /// `VmHWM` of this process, MiB.
    pub peak_rss_mb: f64,
    /// The simulated metrics.
    pub sim: SimMetrics,
    /// The fleet counters.
    pub counters: Counters,
    /// FNV-1a digest of the routing decisions.
    pub routing_digest: u64,
    /// FNV-1a digest of the outcomes.
    pub outcome_digest: u64,
    /// Failed correctness checks, empty when the run is correct.
    pub errors: Vec<String>,
    /// Requests without exactly one outcome.
    pub lost_requests: usize,
    /// The spans, when traced.
    pub spans: Option<Spans>,
    /// Audit violations summed over clusters, when audited.
    pub audit_violations: Option<usize>,
}

/// Runs one measured simulation.
pub fn run(options: RunOptions) -> RunResult {
    let probe_s = probe::kernel_seconds();
    let setup_start = Instant::now();
    let inputs = workload::build(options.workload, options.seed, options.requests);
    let generated = inputs.requests;
    let (report, sim, setup_s, run_s, runq_wait_s) = if options.traced {
        layers::reset();
        let clusters = inputs
            .clusters
            .into_iter()
            .map(|c| FleetCluster {
                policy: Box::new(TracedPolicy(c.policy)),
                ..c
            })
            .collect();
        let source = Box::new(TracedSource(inputs.source));
        let router = TracedRouter(DeadlineAwareRouter::new());
        simulate(clusters, router, source, generated, true, setup_start)
    } else {
        let router = DeadlineAwareRouter::new();
        simulate(
            inputs.clusters,
            router,
            inputs.source,
            generated,
            false,
            setup_start,
        )
    };
    let spans = options.traced.then(layers::take);

    // Everything below is outside the timed region.
    let peak_rss_mb = peak_rss_mb();
    let counters = counters(&report);
    let outcomes = report.all_outcomes();
    let lost_requests = lost_requests(&outcomes, generated);
    let mut errors = Vec::new();
    if lost_requests != 0 {
        errors.push(format!(
            "{lost_requests} of {generated} requests lack exactly one outcome"
        ));
    }
    if counters.feas_grow_events != 0 {
        errors.push(format!(
            "feasibility scratch grew {} time(s) after warm-up",
            counters.feas_grow_events
        ));
    }
    let audit_violations = options.audit.then(|| {
        report
            .clusters
            .iter()
            .map(|c| audit(&c.report.trace, &c.report.outcomes).len())
            .sum::<usize>()
    });
    if let Some(v) = audit_violations.filter(|&v| v != 0) {
        errors.push(format!("audit found {v} violation(s)"));
    }
    RunResult {
        options,
        probe_s,
        setup_s,
        run_s,
        sim_req_per_s: generated as f64 / run_s,
        runq_wait_s,
        peak_rss_mb,
        sim,
        counters,
        routing_digest: report.routing_digest,
        outcome_digest: report.outcome_digest,
        errors,
        lost_requests,
        spans,
        audit_violations,
    }
}

/// Builds the fleet sim, ends the set-up clock, then times the run and
/// the report computation.
fn simulate<R: Router>(
    clusters: Vec<FleetCluster>,
    router: R,
    source: Box<dyn ArrivalSource>,
    generated: usize,
    traced: bool,
    setup_start: Instant,
) -> (FleetReport, SimMetrics, f64, f64, f64) {
    let mut sim = FleetSim::streaming(clusters, router, source, vec![]);
    sim.warm_up_scratch(SCRATCH_WARM);
    let wait_before = runq_wait_s();
    let run_start = Instant::now();
    let setup_s = (run_start - setup_start).as_secs_f64();
    let report = sim.run();
    let metrics = summarize(&report, generated, traced);
    let run_s = run_start.elapsed().as_secs_f64();
    let wait = runq_wait_s() - wait_before;
    (report, metrics, setup_s, run_s, wait)
}

/// Computes the simulated metrics through the `tetriserve-metrics` report
/// functions, each in a `metrics` span when traced.
fn summarize(report: &FleetReport, generated: usize, traced: bool) -> SimMetrics {
    let outcomes = maybe_span(traced, Layer::Metrics, || report.all_outcomes());
    let makespan = maybe_span(traced, Layer::Metrics, || report.makespan());
    let fleet_sar = maybe_span(traced, Layer::Metrics, || sar(&outcomes));
    let worst = maybe_span(traced, Layer::Metrics, || {
        worst_tenant_sar(&tenant_summaries(&outcomes, makespan))
    });
    let latency = maybe_span(traced, Layer::Metrics, || {
        LatencySummary::from_outcomes(&outcomes)
    });
    let decode_slo_share = maybe_span(traced, Layer::Metrics, || stage_slo_share(&outcomes).2);
    let pools: Vec<(f64, f64)> = maybe_span(traced, Layer::Metrics, || {
        report
            .clusters
            .iter()
            .filter(|c| c.report.pool != PoolLayout::Unified)
            .map(|c| pool_utilization(&c.report))
            .collect()
    });

    let met = outcomes.iter().filter(|o| o.met_slo()).count();
    let unserved = outcomes.iter().filter(|o| o.completion.is_none()).count();
    let mean = |f: fn(&(f64, f64)) -> f64| {
        if pools.is_empty() {
            0.0
        } else {
            pools.iter().map(f).sum::<f64>() / pools.len() as f64
        }
    };
    SimMetrics {
        sar: fleet_sar,
        goodput_rps: met as f64 / makespan.as_secs_f64().max(f64::MIN_POSITIVE),
        latency_p50_s: latency.percentile(50.0).unwrap_or(0.0),
        latency_p99_s: latency.percentile(99.0).unwrap_or(0.0),
        latency_samples: latency.len(),
        worst_tenant_sar: worst,
        unserved_frac: (unserved + generated.saturating_sub(outcomes.len())) as f64
            / generated.max(1) as f64,
        encode_util: mean(|p| p.0),
        decode_util: mean(|p| p.1),
        decode_slo_share,
    }
}

fn counters(report: &FleetReport) -> Counters {
    let mut c = Counters {
        fleet_shed: report.fleet_shed.len(),
        peak_backlog: report.peak_backlog,
        outcomes: report.total_requests(),
        ..Counters::default()
    };
    for cluster in &report.clusters {
        let r = &cluster.report;
        c.events += r.events;
        c.feas_calls += r.feas_calls;
        c.feas_grow_events += r.feas_grow_events;
        c.admission_shed += r.shed_requests;
        c.trace_events += r.trace.len();
    }
    c
}

/// Requests `0..generated` that do not have exactly one outcome, plus
/// outcomes for ids never generated.
fn lost_requests(outcomes: &[tetriserve_core::RequestOutcome], generated: usize) -> usize {
    let mut seen = vec![0u32; generated];
    let mut stray = 0usize;
    for o in outcomes {
        match usize::try_from(o.id.0).ok().and_then(|i| seen.get_mut(i)) {
            Some(n) => *n += 1,
            None => stray += 1,
        }
    }
    seen.iter().filter(|&&n| n != 1).count() + stray
}

/// Cumulative run-queue wait of this thread in seconds: the second field
/// of `/proc/self/schedstat`. Zero where the kernel does not expose it.
fn runq_wait_s() -> f64 {
    let text = std::fs::read_to_string("/proc/self/schedstat").unwrap_or_default();
    text.split_whitespace()
        .nth(1)
        .and_then(|f| f.parse::<u64>().ok())
        .map_or(0.0, |ns| ns as f64 * 1e-9)
}

/// `VmHWM` of this process in MiB, or 0 where `/proc` is unavailable.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

impl RunResult {
    /// Self time of the `server` layer: the run's wall time minus the self
    /// time of every wrapped layer. `None` for an untraced run.
    pub fn server_self_s(&self) -> Option<f64> {
        let spans = self.spans.as_ref()?;
        let wrapped: f64 = spans.layers.iter().map(|l| l.self_s).sum();
        Some(self.run_s - wrapped)
    }

    /// One JSON object on one line. Floats are printed in Rust's shortest
    /// round-trip form, so equal values compare bit-identically after
    /// parsing.
    pub fn to_json(&self) -> String {
        let o = &self.options;
        let s = &self.sim;
        let c = &self.counters;
        let mut j = String::from("{");
        let mut field = |k: &str, v: String| {
            if j.len() > 1 {
                j.push_str(", ");
            }
            let _ = write!(j, "\"{k}\": {v}");
        };
        field("workload", format!("\"{}\"", o.workload.name()));
        field("seed", o.seed.to_string());
        field("requests", o.requests.to_string());
        field("traced", o.traced.to_string());
        field("probe_s", num(self.probe_s));
        field("setup_s", num(self.setup_s));
        field("run_s", num(self.run_s));
        field("sim_req_per_s", num(self.sim_req_per_s));
        field("runq_wait_s", num(self.runq_wait_s));
        field("peak_rss_mb", num(self.peak_rss_mb));
        field("sar", num(s.sar));
        field("goodput_rps", num(s.goodput_rps));
        field("latency_p50_s", num(s.latency_p50_s));
        field("latency_p99_s", num(s.latency_p99_s));
        field("latency_samples", s.latency_samples.to_string());
        field("worst_tenant_sar", num(s.worst_tenant_sar));
        field("unserved_frac", num(s.unserved_frac));
        field("encode_util", num(s.encode_util));
        field("decode_util", num(s.decode_util));
        field("decode_slo_share", num(s.decode_slo_share));
        field("events", c.events.to_string());
        field("feas_calls", c.feas_calls.to_string());
        field("feas_grow_events", c.feas_grow_events.to_string());
        field("admission_shed", c.admission_shed.to_string());
        field("fleet_shed", c.fleet_shed.to_string());
        field("peak_backlog", c.peak_backlog.to_string());
        field("outcomes", c.outcomes.to_string());
        field("trace_events", c.trace_events.to_string());
        field("lost_requests", self.lost_requests.to_string());
        field(
            "routing_digest",
            format!("\"{:#018x}\"", self.routing_digest),
        );
        field(
            "outcome_digest",
            format!("\"{:#018x}\"", self.outcome_digest),
        );
        field(
            "audit_violations",
            self.audit_violations
                .map_or("null".to_owned(), |v| v.to_string()),
        );
        let errors: Vec<String> = self.errors.iter().map(|e| format!("{e:?}")).collect();
        field("errors", format!("[{}]", errors.join(", ")));
        let spans = self.spans.as_ref().map_or("null".to_owned(), spans_json);
        field("spans", spans);
        field(
            "server_self_s",
            self.server_self_s().map_or("null".to_owned(), num),
        );
        j.push('}');
        j
    }
}

fn spans_json(s: &Spans) -> String {
    let layer = |l: Layer| {
        let t = s.layer(l);
        format!(
            "{{\"calls\": {}, \"total_s\": {}, \"self_s\": {}}}",
            t.calls,
            num(t.total_s),
            num(t.self_s)
        )
    };
    let calls = LatencySummary::from_latencies(s.schedule_call_s.clone());
    let pct = |p: f64| calls.percentile(p).unwrap_or(0.0);
    format!(
        "{{\"arrivals\": {}, \"router\": {}, \"scheduler\": {}, \"metrics\": {}, \
         \"schedule_call_p50_s\": {}, \"schedule_call_p99_s\": {}, \
         \"dispatching_calls\": {}, \"plans\": {}, \"router_sheds\": {}}}",
        layer(Layer::Arrivals),
        layer(Layer::Router),
        layer(Layer::Scheduler),
        layer(Layer::Metrics),
        num(pct(50.0)),
        num(pct(99.0)),
        s.dispatching_calls,
        s.plans,
        s.router_sheds
    )
}

/// A JSON number in shortest round-trip form (`null` if not finite).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_core::RequestOutcome;
    use tetriserve_costmodel::Resolution;
    use tetriserve_simulator::time::SimTime;
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn outcome(id: u64) -> RequestOutcome {
        RequestOutcome {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: Resolution::R512,
            arrival: SimTime::ZERO,
            deadline: SimTime::from_secs_f64(1.0),
            completion: None,
            gpu_seconds: 0.0,
            steps_executed: 0,
            sp_degree_step_sum: 0,
            retries: 0,
            shed: true,
            steps_shed: 0,
            encode_done: None,
            denoise_done: None,
        }
    }

    #[test]
    fn lost_requests_counts_missing_duplicate_and_stray_outcomes() {
        let all: Vec<_> = (0..4).map(outcome).collect();
        assert_eq!(lost_requests(&all, 4), 0);
        assert_eq!(lost_requests(&all[..3], 4), 1, "missing");
        let dup = [outcome(0), outcome(0), outcome(1), outcome(2), outcome(3)];
        assert_eq!(lost_requests(&dup, 4), 1, "duplicate");
        assert_eq!(lost_requests(&all, 3), 1, "stray");
    }
}
