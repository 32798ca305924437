//! Heap-allocation count of scheduler passes that cannot dispatch.
//!
//! A counting wrapper around the system allocator tallies allocations
//! made by the current thread. After one warm-up pass sizes the policy's
//! reused round buffers, a mid-round backfill pass whose window is
//! shorter than every step, and a pass with no free GPU, must both return
//! no plan without touching the heap.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use tetriserve::core::{Policy, RequestSpec, RequestTracker, SchedContext, TetriServePolicy};
use tetriserve::costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
use tetriserve::simulator::failure::FailurePlan;
use tetriserve::simulator::gpuset::GpuSet;
use tetriserve::simulator::time::{SimDuration, SimTime};
use tetriserve::simulator::trace::{RequestId, TenantId};

/// The system allocator, counting allocations per thread so other test
/// threads cannot disturb a measurement.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every method forwards to `System` unchanged; the counter is a
// const-initialised thread-local `Cell`, which never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[test]
fn passes_that_cannot_dispatch_do_not_allocate() {
    let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
    let mut policy = TetriServePolicy::with_defaults(&costs);
    let tau = policy.tau();
    let arrival = SimTime::ZERO + tau * 10;
    let mut tracker = RequestTracker::new();
    // Every resolution, relaxed and tight deadlines, plus one request
    // already past its deadline (it goes to the best-effort pool).
    for (i, res) in Resolution::PRODUCTION.into_iter().enumerate() {
        for (j, slo_s) in [2.0, 30.0].into_iter().enumerate() {
            let id = RequestId((i * 2 + j) as u64);
            tracker.admit(RequestSpec {
                tenant: TenantId::UNTAGGED,
                id,
                resolution: res,
                arrival,
                deadline: arrival + SimDuration::from_secs_f64(slo_s),
                total_steps: 50,
                stages: StageProfile::FLAT,
            });
        }
    }
    tracker.admit(RequestSpec {
        tenant: TenantId::UNTAGGED,
        id: RequestId(99),
        resolution: Resolution::R1024,
        arrival: SimTime::ZERO,
        deadline: SimTime::ZERO + tau,
        total_steps: 50,
        stages: StageProfile::FLAT,
    });

    // One microsecond before the next boundary: no step of any
    // resolution fits the residual window.
    let now = SimTime::ZERO + tau * 12 - SimDuration::from_micros(1);
    let failures = FailurePlan::none();
    let all = GpuSet::first_n(8);
    let backfill = SchedContext {
        now,
        free: all,
        healthy: all,
        n_gpus: 8,
        tracker: &tracker,
        costs: &costs,
        failures: &failures,
    };
    let nothing_free = SchedContext {
        free: GpuSet::EMPTY,
        now: SimTime::ZERO + tau * 12,
        ..backfill
    };
    assert!(policy.schedule(&backfill).is_empty(), "warm-up pass");

    let before = allocations();
    let plans = policy.schedule(&backfill);
    let backfill_allocs = allocations() - before;
    assert!(plans.is_empty());
    assert_eq!(
        backfill_allocs, 0,
        "backfill pass with no fitting step allocated"
    );

    let before = allocations();
    let plans = policy.schedule(&nothing_free);
    let empty_allocs = allocations() - before;
    assert!(plans.is_empty());
    assert_eq!(empty_allocs, 0, "pass with nothing free allocated");
}
