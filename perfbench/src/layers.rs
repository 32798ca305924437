//! The per-layer host-time split, measured from outside the program.
//!
//! The traced run wraps the program's public seams — the
//! [`ArrivalSource`], the [`Router`], every cluster's boxed [`Policy`] —
//! and the `tetriserve-metrics` report calls the benchmark makes. Each
//! wrapper forwards unchanged and records a span. A layer's self time is
//! its spans' duration minus the spans nested inside them; the `server`
//! layer (event loop, feasibility, tracker, engine, fleet driver) is the
//! run's wall time minus every wrapped layer's self time. The untraced run
//! uses none of this.
//!
//! The fleet's serial driver steps every cluster on the calling thread, so
//! the span state is thread-local.

use std::cell::RefCell;
use std::time::Instant;

use tetriserve_core::{DispatchPlan, Policy, PolicyEvent, RequestSpec, SchedContext};
use tetriserve_fleet::{ArrivalSource, ClusterView, RouteDecision, Router};
use tetriserve_simulator::time::SimTime;

/// A wrapped layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ArrivalSource::{peek_time, next_spec}`.
    Arrivals = 0,
    /// `Router::route`.
    Router = 1,
    /// `Policy::schedule` on every cluster.
    Scheduler = 2,
    /// The `tetriserve-metrics` report functions.
    Metrics = 3,
}

/// Span totals of one layer.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    /// Spans recorded.
    pub calls: u64,
    /// Wall time inside the spans, nested spans included.
    pub total_s: f64,
    /// Wall time inside the spans minus nested spans.
    pub self_s: f64,
}

/// Everything the traced run records.
#[derive(Debug, Clone, Default)]
pub struct Spans {
    /// Totals per [`Layer`], indexed by its discriminant.
    pub layers: [LayerTotals; 4],
    /// Duration of every `Policy::schedule` call, seconds.
    pub schedule_call_s: Vec<f64>,
    /// `Policy::schedule` calls that returned at least one plan.
    pub dispatching_calls: u64,
    /// Plans returned by `Policy::schedule`.
    pub plans: u64,
    /// `Router::route` decisions that shed the request.
    pub router_sheds: u64,
    /// Child-time accumulators of the open spans, innermost last.
    open: Vec<f64>,
}

impl Spans {
    /// The totals of `layer`.
    pub fn layer(&self, layer: Layer) -> LayerTotals {
        self.layers[layer as usize]
    }
}

thread_local! {
    static SPANS: RefCell<Spans> = RefCell::new(Spans::default());
}

/// Clears the thread's spans.
pub fn reset() {
    SPANS.with(|s| *s.borrow_mut() = Spans::default());
}

/// Takes the thread's spans, leaving them cleared.
pub fn take() -> Spans {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// Runs `f` inside a span of `layer` and returns its result with the
/// span's duration in seconds.
pub fn span<T>(layer: Layer, f: impl FnOnce() -> T) -> (T, f64) {
    SPANS.with(|s| s.borrow_mut().open.push(0.0));
    let start = Instant::now();
    let out = f();
    let elapsed = start.elapsed().as_secs_f64();
    SPANS.with(|s| {
        let mut s = s.borrow_mut();
        let nested = s.open.pop().unwrap_or(0.0);
        let totals = &mut s.layers[layer as usize];
        totals.calls += 1;
        totals.total_s += elapsed;
        totals.self_s += (elapsed - nested).max(0.0);
        if let Some(parent) = s.open.last_mut() {
            *parent += elapsed;
        }
    });
    (out, elapsed)
}

/// Runs `f` in a span of `layer` when `traced`, or plainly otherwise.
pub fn maybe_span<T>(traced: bool, layer: Layer, f: impl FnOnce() -> T) -> T {
    if traced {
        span(layer, f).0
    } else {
        f()
    }
}

/// An [`ArrivalSource`] that records an `arrivals` span per call.
pub struct TracedSource(pub Box<dyn ArrivalSource>);

impl ArrivalSource for TracedSource {
    fn peek_time(&mut self) -> Option<SimTime> {
        span(Layer::Arrivals, || self.0.peek_time()).0
    }

    fn next_spec(&mut self) -> Option<RequestSpec> {
        span(Layer::Arrivals, || self.0.next_spec()).0
    }
}

/// A [`Router`] that records a `router` span per decision and counts
/// sheds.
pub struct TracedRouter<R>(pub R);

impl<R: Router> Router for TracedRouter<R> {
    fn name(&self) -> String {
        self.0.name()
    }

    fn route(&mut self, spec: &RequestSpec, views: &[ClusterView]) -> RouteDecision {
        let (decision, _) = span(Layer::Router, || self.0.route(spec, views));
        if matches!(decision, RouteDecision::Shed) {
            SPANS.with(|s| s.borrow_mut().router_sheds += 1);
        }
        decision
    }
}

/// A [`Policy`] that records a `scheduler` span per scheduling pass, its
/// duration, and the plans it returned.
pub struct TracedPolicy(pub Box<dyn Policy>);

impl Policy for TracedPolicy {
    fn name(&self) -> String {
        self.0.name()
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        self.0.reacts_to(event)
    }

    fn next_tick(&self, now: SimTime) -> Option<SimTime> {
        self.0.next_tick(now)
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        let (plans, elapsed) = span(Layer::Scheduler, || self.0.schedule(ctx));
        SPANS.with(|s| {
            let mut s = s.borrow_mut();
            s.schedule_call_s.push(elapsed);
            s.plans += plans.len() as u64;
            s.dispatching_calls += u64::from(!plans.is_empty());
        });
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_charge_self_time_to_the_innermost_layer() {
        reset();
        let (_, outer) = span(Layer::Metrics, || {
            span(Layer::Router, || {
                std::hint::black_box((0..10_000u64).sum::<u64>())
            })
        });
        let spans = take();
        let router = spans.layer(Layer::Router);
        let metrics = spans.layer(Layer::Metrics);
        assert_eq!((router.calls, metrics.calls), (1, 1));
        assert_eq!(metrics.total_s, outer);
        assert!((metrics.self_s + router.self_s - outer).abs() < 1e-12);
        assert!(metrics.self_s < metrics.total_s);
        assert!(take().layer(Layer::Router).calls == 0, "take clears");
    }
}
