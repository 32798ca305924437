//! EDF cumulative-demand feasibility — the admission machinery behind
//! deadline-aware shedding (PR 1) and fleet-level routing.
//!
//! The test is the classic earliest-deadline-first capacity argument:
//! walk live requests in deadline order accumulating each one's cheapest
//! deadline-respecting GPU-second demand; the backlog is infeasible the
//! moment the running total exceeds what the healthy GPUs can deliver by
//! that deadline. Single-cluster admission control uses the scan to pick
//! shedding victims ([`crate::server`]); the fleet router uses the pure
//! boolean form ([`edf_feasible_with_arrival`]) to ask "could this cluster
//! still take one more request" before committing an arrival to it.

use tetriserve_costmodel::stage::frame_scaled;
use tetriserve_costmodel::{CostTable, DemandRow, Resolution, StageProfile};
use tetriserve_simulator::time::SimTime;
use tetriserve_simulator::trace::RequestId;

use crate::config::ROUND_HEADROOM;
use crate::tracker::{Phase, RequestTracker};

/// Fraction of raw healthy GPU-seconds the admission test counts as
/// deliverable. A real round-based schedule never converts 100% of the EDF
/// capacity bound into diffusion steps: round-boundary quantization,
/// placement fragmentation and VAE decodes all eat into it.
pub const ADMISSION_UTILIZATION: f64 = 0.8;

/// One live request's entry in the EDF cumulative-demand scan.
#[derive(Debug, Clone, Copy)]
pub struct DemandEntry {
    /// The request.
    pub id: RequestId,
    /// Absolute completion deadline.
    pub deadline: SimTime,
    /// Cheapest deadline-respecting GPU-second demand for the remaining
    /// steps (see [`cheapest_step_demand`]).
    pub demand: f64,
    /// Seconds of headroom beyond running flat-out at the fastest degree;
    /// negative means no degree can make the deadline.
    pub slack: f64,
    /// Whether the request has executed no steps yet (only fresh requests
    /// may be shed or re-routed — progress is never thrown away).
    pub fresh: bool,
}

/// The cheapest per-step GPU-second cost among parallelism degrees that
/// can still finish `remaining` steps — frame-scaled, plus the tail
/// stages of the chain (per-frame VAE decode and, when the profile
/// carries one, the condition encode) — inside `horizon` seconds with
/// jitter headroom. A tight deadline forces a wide (less GPU-efficient)
/// degree, so this is *not* the global optimum. When no degree can make
/// it, falls back to the fastest degree; the caller's negative slack
/// makes such a request the first shedding victim anyway.
///
/// For [`StageProfile::FLAT`] every stage term is the exact identity
/// (`frames = 1`, encode = `0.0`), so verdicts are bit-identical to the
/// pre-stage formula.
pub fn cheapest_step_demand(
    costs: &CostTable,
    res: Resolution,
    stages: StageProfile,
    remaining: u32,
    horizon: f64,
) -> f64 {
    // tetrilint: allow(nominal-step-time) -- demand side is nominal by convention
    row_step_demand(&costs.demand_row(res), stages, remaining, horizon)
}

/// [`cheapest_step_demand`] over a resolution's already-resolved
/// [`DemandRow`]: the same expression, operand order and degree order as
/// the per-degree `CostTable` lookups it replaces, so every demand is
/// bit-identical (`crate::proptests` pins this against that formula).
fn row_step_demand(row: &DemandRow<'_>, stages: StageProfile, remaining: u32, horizon: f64) -> f64 {
    let remaining_f = f64::from(remaining);
    let frames_f = stages.frame_factor();
    let decode = frame_scaled(row.decode1, stages.frames).as_secs_f64();
    let encode = if stages.encode { row.encode_secs } else { 0.0 };
    let per_step = row
        .step_secs
        .iter()
        .zip(row.gpu_secs)
        // Demand is denominated in nominal GPU-seconds; the capacity side
        // of the EDF scan carries the slowdown derating.
        .filter(|&(&t, _)| remaining_f * t * ROUND_HEADROOM * frames_f + decode + encode <= horizon)
        .map(|(_, &gpu_secs)| gpu_secs)
        .fold(f64::INFINITY, f64::min);
    if per_step.is_finite() {
        per_step
    } else {
        row.fastest_gpu_secs
    }
}

/// Builds the demand entry for one request's remaining work at `now`.
/// Frame-scaled throughout: a video request demands `frames ×` the
/// GPU-seconds of its image twin and burns slack `frames ×` faster.
#[allow(clippy::too_many_arguments)]
pub fn demand_entry(
    costs: &CostTable,
    id: RequestId,
    res: Resolution,
    stages: StageProfile,
    remaining: u32,
    deadline: SimTime,
    now: SimTime,
    fresh: bool,
) -> DemandEntry {
    let horizon = deadline.saturating_since(now).as_secs_f64();
    // tetrilint: allow(nominal-step-time) -- demand and victim-ranking slack are nominal by convention
    let row = costs.demand_row(res);
    let per_step = row_step_demand(&row, stages, remaining, horizon);
    let frames_f = stages.frame_factor();
    DemandEntry {
        id,
        deadline,
        demand: f64::from(remaining) * per_step * frames_f,
        // Slack ranks victims at the nominal fastest step time, which keeps
        // the ranking stable under slowdown faults.
        slack: horizon - f64::from(remaining) * row.t_min_secs * frames_f,
        fresh,
    }
}

/// Demand entries for every live (queued or running, work remaining)
/// request in the tracker, sorted by (deadline, id) — EDF scan order.
///
/// Iterates the tracker's incremental live index (already in scan order,
/// so no sort), making each scan O(live backlog) instead of O(every
/// request ever admitted). In debug builds the result is cross-checked
/// bit-for-bit against [`live_entries_full`].
pub fn live_entries(tracker: &RequestTracker, now: SimTime, costs: &CostTable) -> Vec<DemandEntry> {
    let mut out = Vec::with_capacity(tracker.live_len());
    fill_live_entries(tracker, now, costs, &mut out);
    out
}

/// Fills `out` (cleared first) with the live demand entries in EDF scan
/// order — the allocation-free form of [`live_entries`] used by the
/// serving loop's reusable scratch.
pub fn fill_live_entries(
    tracker: &RequestTracker,
    now: SimTime,
    costs: &CostTable,
    out: &mut Vec<DemandEntry>,
) {
    out.clear();
    out.extend(tracker.live().map(|r| {
        demand_entry(
            costs,
            r.spec.id,
            r.spec.resolution,
            r.spec.stages,
            r.remaining_steps,
            r.spec.deadline,
            now,
            // Degraded-but-unstarted still counts as fresh: no executed
            // steps means shedding or re-routing it wastes no work.
            r.phase == Phase::Queued && r.steps_executed() == 0,
        )
    }));
    debug_assert!(
        entries_bit_identical(out, &live_entries_full(tracker, now, costs)),
        "incremental live index diverged from the full recompute"
    );
}

/// The pre-index full recompute of [`live_entries`]: scans *every*
/// tracked request and sorts. Kept as the ground truth the incremental
/// index is cross-checked against (`debug_assert` above, plus the
/// proptest in `crate::proptests`); verdicts must stay bit-identical.
pub fn live_entries_full(
    tracker: &RequestTracker,
    now: SimTime,
    costs: &CostTable,
) -> Vec<DemandEntry> {
    let mut live: Vec<DemandEntry> = tracker
        .iter()
        .filter(|r| matches!(r.phase, Phase::Queued | Phase::Running) && r.remaining_steps > 0)
        .map(|r| {
            demand_entry(
                costs,
                r.spec.id,
                r.spec.resolution,
                r.spec.stages,
                r.remaining_steps,
                r.spec.deadline,
                now,
                r.phase == Phase::Queued && r.steps_executed() == 0,
            )
        })
        .collect();
    sort_entries(&mut live);
    live
}

/// Whether two entry slices are bit-identical: same order, same ids and
/// deadlines, and the floating-point fields equal down to the bit pattern
/// (`to_bits`, so NaN-safe and stricter than `==`).
pub fn entries_bit_identical(a: &[DemandEntry], b: &[DemandEntry]) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| {
            x.id == y.id
                && x.deadline == y.deadline
                && x.demand.to_bits() == y.demand.to_bits()
                && x.slack.to_bits() == y.slack.to_bits()
                && x.fresh == y.fresh
        })
}

/// Reusable demand-entry scratch for the serving loop's per-pass EDF
/// scans (`rescue_pass` and friends in [`crate::server`]) and the fleet
/// router's per-arrival probe (`ClusterSim::route_view`), with the same
/// counter discipline as the packer's `PackScratch`: after
/// [`warm_up`](FeasScratch::warm_up) (or one cold pass at the
/// high-water backlog), every refill reuses the buffer — zero heap
/// allocations in the steady-state event loop, and `grow_events` counts
/// the exceptions.
#[derive(Debug, Default)]
pub struct FeasScratch {
    entries: Vec<DemandEntry>,
    calls: u64,
    grow_events: u64,
    allocations_avoided: u64,
}

impl FeasScratch {
    /// An empty scratch; the first fills size it.
    pub fn new() -> Self {
        FeasScratch::default()
    }

    /// Pre-sizes the buffer for a live backlog of up to `max_live`
    /// entries so even the first pass allocates nothing.
    pub fn warm_up(&mut self, max_live: usize) {
        if self.entries.capacity() < max_live {
            self.entries.reserve_exact(max_live - self.entries.len());
        }
    }

    /// Refills the scratch with the tracker's live entries at `now` (EDF
    /// scan order) and returns them. Reuses the buffer: no allocation
    /// unless the live backlog outgrew every previous pass.
    pub fn fill(
        &mut self,
        tracker: &RequestTracker,
        now: SimTime,
        costs: &CostTable,
    ) -> &[DemandEntry] {
        self.calls += 1;
        if self.entries.capacity() >= tracker.live_len() {
            self.allocations_avoided += 1;
        }
        self.refill(tracker, now, costs)
    }

    /// Refills like [`fill`](FeasScratch::fill) without counting a scan:
    /// `calls` and `allocations_avoided` stay put, a buffer growth still
    /// counts in `grow_events`. For read-only route-time probes, which run
    /// once per fleet arrival rather than once per serving-loop pass.
    pub fn probe(
        &mut self,
        tracker: &RequestTracker,
        now: SimTime,
        costs: &CostTable,
    ) -> &[DemandEntry] {
        self.refill(tracker, now, costs)
    }

    fn refill(
        &mut self,
        tracker: &RequestTracker,
        now: SimTime,
        costs: &CostTable,
    ) -> &[DemandEntry] {
        let cap = self.entries.capacity();
        fill_live_entries(tracker, now, costs, &mut self.entries);
        if self.entries.capacity() > cap {
            self.grow_events += 1;
        }
        &self.entries
    }

    /// Scans issued through this scratch.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Buffer growths — zero in steady state once warmed up.
    pub fn grow_events(&self) -> u64 {
        self.grow_events
    }

    /// Heap allocations the buffer reuse avoided vs the allocate-per-scan
    /// implementation.
    pub fn allocations_avoided(&self) -> u64 {
        self.allocations_avoided
    }
}

/// Sorts entries into the canonical EDF scan order (deadline, then id).
pub fn sort_entries(entries: &mut [DemandEntry]) {
    entries.sort_by(|a, b| a.deadline.cmp(&b.deadline).then(a.id.cmp(&b.id)));
}

/// Whether the cumulative-demand scan stays within what `healthy` GPUs can
/// deliver (derated by [`ADMISSION_UTILIZATION`]) at every deadline.
/// `entries` must already be in EDF scan order.
pub fn edf_feasible(entries: &[DemandEntry], now: SimTime, healthy: usize) -> bool {
    edf_feasible_with_extra(entries, now, healthy, 0.0)
}

/// [`edf_feasible`] against a *fractional* capacity in nominal-GPU units —
/// the degradation-aware form. A cluster whose GPUs are throttled delivers
/// fewer nominal GPU-seconds per wall-second than its healthy count
/// suggests; callers pass `FailurePlan::effective_capacity` here so
/// admission stays honest under slowdown faults. Demand entries remain in
/// nominal GPU-seconds, which is the same currency. Passing
/// `healthy as f64` is bit-identical to [`edf_feasible`].
pub fn edf_feasible_capacity(entries: &[DemandEntry], now: SimTime, capacity: f64) -> bool {
    edf_feasible_with_extra_capacity(entries, now, capacity, 0.0)
}

/// [`edf_feasible_with_extra`] against a fractional capacity (see
/// [`edf_feasible_capacity`]).
pub fn edf_feasible_with_extra_capacity(
    entries: &[DemandEntry],
    now: SimTime,
    capacity: f64,
    extra: f64,
) -> bool {
    fits(entries, now, capacity, extra)
}

/// [`edf_feasible_capacity`] over `entries` plus one `arriving` entry,
/// without building the combined list: `arriving` is scanned at its
/// `(deadline, id)` position, after any entry with an equal key — exactly
/// where pushing it onto `entries` and calling [`sort_entries`] (a stable
/// sort) would leave it. The demand sum therefore runs in the same order
/// and the verdict is bit-identical to push + sort + scan. `entries` must
/// already be in EDF scan order.
pub fn edf_feasible_with_arrival(
    entries: &[DemandEntry],
    arriving: &DemandEntry,
    now: SimTime,
    capacity: f64,
) -> bool {
    let key = (arriving.deadline, arriving.id);
    let (before, after) = entries.split_at(entries.partition_point(|e| (e.deadline, e.id) <= key));
    fits(
        before.iter().chain(std::iter::once(arriving)).chain(after),
        now,
        capacity,
        0.0,
    )
}

/// The cumulative-demand scan itself, over entries in EDF scan order.
fn fits<'a>(
    entries: impl IntoIterator<Item = &'a DemandEntry>,
    now: SimTime,
    capacity: f64,
    extra: f64,
) -> bool {
    let mut demand = extra;
    for e in entries {
        demand += e.demand;
        let deliverable =
            capacity * e.deadline.saturating_since(now).as_secs_f64() * ADMISSION_UTILIZATION;
        if demand > deliverable {
            return false;
        }
    }
    true
}

/// [`edf_feasible`] with the demand accumulator seeded at `extra`
/// GPU-seconds. The fleet rebalancer uses this to account for migrations
/// it has already committed to a target cluster *within the same
/// rebalance tick*: the in-flight work is not in the target's tracker
/// yet, but it will land before any of the scanned deadlines, so it
/// competes for the same capacity. `extra = 0.0` is bit-identical to the
/// plain scan (the accumulator starts at `0.0 + 0.0`).
pub fn edf_feasible_with_extra(
    entries: &[DemandEntry],
    now: SimTime,
    healthy: usize,
    extra: f64,
) -> bool {
    edf_feasible_with_extra_capacity(entries, now, healthy as f64, extra)
}

/// The ids of every entry inside the violating EDF prefix: if the
/// cumulative-demand scan last exceeds capacity at index `j`, all of
/// `entries[..=j]` are "at risk" — the backlog through deadline `j`
/// cannot be delivered, and any of those requests is a candidate to be
/// moved elsewhere (moving a later one frees capacity for the whole
/// prefix). Empty when the backlog is feasible. A cluster with zero
/// healthy GPUs has zero capacity, so every entry with positive demand
/// is at risk — which is exactly what the fleet rebalancer wants during
/// a whole-cluster outage. `entries` must be in EDF scan order.
pub fn edf_at_risk(entries: &[DemandEntry], now: SimTime, healthy: usize) -> Vec<RequestId> {
    edf_at_risk_capacity(entries, now, healthy as f64)
}

/// [`edf_at_risk`] against a fractional capacity (see
/// [`edf_feasible_capacity`]). Passing `healthy as f64` is bit-identical
/// to the integer form.
pub fn edf_at_risk_capacity(
    entries: &[DemandEntry],
    now: SimTime,
    capacity: f64,
) -> Vec<RequestId> {
    let mut demand = 0.0;
    let mut last_violation = None;
    for (i, e) in entries.iter().enumerate() {
        demand += e.demand;
        let deliverable =
            capacity * e.deadline.saturating_since(now).as_secs_f64() * ADMISSION_UTILIZATION;
        if demand > deliverable {
            last_violation = Some(i);
        }
    }
    match last_violation {
        Some(j) => entries.iter().take(j + 1).map(|e| e.id).collect(),
        None => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSpec;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler};
    use tetriserve_simulator::trace::TenantId;

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn tracked(ids: &[(u64, f64)]) -> RequestTracker {
        let mut t = RequestTracker::new();
        for &(id, slo) in ids {
            t.admit(RequestSpec {
                tenant: TenantId::UNTAGGED,
                id: RequestId(id),
                resolution: Resolution::R1024,
                arrival: SimTime::ZERO,
                deadline: SimTime::from_secs_f64(slo),
                total_steps: 50,
                stages: StageProfile::FLAT,
            });
        }
        t
    }

    #[test]
    fn relaxed_backlog_is_feasible() {
        let c = costs();
        let t = tracked(&[(0, 60.0), (1, 70.0)]);
        let entries = live_entries(&t, SimTime::ZERO, &c);
        assert_eq!(entries.len(), 2);
        assert!(entries.windows(2).all(|w| w[0].deadline <= w[1].deadline));
        assert!(edf_feasible(&entries, SimTime::ZERO, 8));
    }

    #[test]
    fn overload_is_infeasible_and_relieved_by_capacity() {
        let c = costs();
        let ids: Vec<(u64, f64)> = (0..40).map(|i| (i, 3.0)).collect();
        let t = tracked(&ids);
        let entries = live_entries(&t, SimTime::ZERO, &c);
        assert!(!edf_feasible(&entries, SimTime::ZERO, 1));
        // The same backlog on a vastly bigger node would be fine.
        assert!(edf_feasible(&entries, SimTime::ZERO, 4096));
    }

    #[test]
    fn tight_deadline_forces_wider_cheapest_degree() {
        let c = costs();
        // With an impossible horizon the fallback charges the fastest
        // degree, which costs at least as many GPU-seconds per step as the
        // relaxed-case optimum.
        let relaxed = cheapest_step_demand(&c, Resolution::R2048, StageProfile::FLAT, 50, 1e9);
        let hopeless = cheapest_step_demand(&c, Resolution::R2048, StageProfile::FLAT, 50, 0.001);
        assert!(hopeless >= relaxed);
    }

    #[test]
    fn frames_multiply_demand_and_burn_slack() {
        let c = costs();
        let entry = |stages| {
            demand_entry(
                &c,
                RequestId(0),
                Resolution::R512,
                stages,
                50,
                SimTime::from_secs_f64(120.0),
                SimTime::ZERO,
                true,
            )
        };
        let flat = entry(StageProfile::FLAT);
        let one_frame = entry(StageProfile::video(1));
        let video = entry(StageProfile::video(8));
        // A single-frame video prices its denoise like the flat request
        // (the encode only tightens the degree filter, not the demand).
        assert_eq!(one_frame.demand.to_bits(), flat.demand.to_bits());
        assert!((video.demand / flat.demand - 8.0).abs() < 1e-9);
        assert!(video.slack < flat.slack);
    }

    #[test]
    fn flat_profile_is_bit_identical_to_one_frame_no_encode() {
        let c = costs();
        // The FLAT constant and a literal {encode: false, frames: 1} must
        // be indistinguishable in every formula.
        let explicit = StageProfile {
            encode: false,
            frames: 1,
        };
        for res in [Resolution::R256, Resolution::R1024, Resolution::R2048] {
            for horizon in [0.5, 5.0, 500.0] {
                let a = cheapest_step_demand(&c, res, StageProfile::FLAT, 50, horizon);
                let b = cheapest_step_demand(&c, res, explicit, 50, horizon);
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn at_risk_prefix_matches_feasibility_verdict() {
        let c = costs();
        let ids: Vec<(u64, f64)> = (0..40).map(|i| (i, 3.0)).collect();
        let t = tracked(&ids);
        let entries = live_entries(&t, SimTime::ZERO, &c);
        // Feasible backlog: nothing at risk.
        assert!(edf_at_risk(&entries, SimTime::ZERO, 4096).is_empty());
        // Infeasible on one GPU: the at-risk set is a non-empty prefix in
        // scan order.
        let risk = edf_at_risk(&entries, SimTime::ZERO, 1);
        assert!(!risk.is_empty());
        assert_eq!(
            risk,
            entries[..risk.len()]
                .iter()
                .map(|e| e.id)
                .collect::<Vec<_>>()
        );
        // Zero healthy GPUs: everything with demand is at risk.
        let all = edf_at_risk(&entries, SimTime::ZERO, 0);
        assert_eq!(all.len(), entries.len());
    }

    #[test]
    fn extra_demand_tightens_the_scan() {
        let c = costs();
        let t = tracked(&[(0, 30.0), (1, 30.0)]);
        let entries = live_entries(&t, SimTime::ZERO, &c);
        assert!(edf_feasible(&entries, SimTime::ZERO, 8));
        assert!(edf_feasible_with_extra(&entries, SimTime::ZERO, 8, 0.0));
        // A huge in-flight migration load makes the same backlog
        // infeasible.
        assert!(!edf_feasible_with_extra(&entries, SimTime::ZERO, 8, 1e9));
    }

    #[test]
    fn arrival_merge_matches_push_and_stable_sort() {
        // Three entries with one deadline, where the summation order
        // decides the verdict: 1e16 + 1 rounds back to 1e16, so the big
        // demand absorbs ones added after it but not ones added before.
        let entry = |id: u64, demand: f64| DemandEntry {
            id: RequestId(id),
            deadline: SimTime::from_secs_f64(1.0),
            demand,
            slack: 0.0,
            fresh: true,
        };
        let live = [entry(2, 1.0), entry(4, 1.0)];
        let oracle = |arriving: DemandEntry, capacity: f64| {
            let mut all = live.to_vec();
            all.push(arriving);
            sort_entries(&mut all);
            edf_feasible_capacity(&all, SimTime::ZERO, capacity)
        };
        let capacity = 1e16 / ADMISSION_UTILIZATION;
        // Ahead of both ties the ones are absorbed; behind them they add up.
        assert!(oracle(entry(1, 1e16), capacity));
        assert!(!oracle(entry(5, 1e16), capacity));
        for id in 0..=6 {
            for capacity in [capacity, 0.0, 1e17] {
                let arriving = entry(id, 1e16);
                assert_eq!(
                    edf_feasible_with_arrival(&live, &arriving, SimTime::ZERO, capacity),
                    oracle(arriving, capacity),
                    "arriving id {id}, capacity {capacity}"
                );
            }
        }
    }

    #[test]
    fn demand_scales_with_remaining_steps() {
        let c = costs();
        let e10 = demand_entry(
            &c,
            RequestId(0),
            Resolution::R512,
            StageProfile::FLAT,
            10,
            SimTime::from_secs_f64(60.0),
            SimTime::ZERO,
            true,
        );
        let e50 = demand_entry(
            &c,
            RequestId(0),
            Resolution::R512,
            StageProfile::FLAT,
            50,
            SimTime::from_secs_f64(60.0),
            SimTime::ZERO,
            true,
        );
        assert!(e50.demand > e10.demand);
        assert!(e50.slack < e10.slack);
    }
}
