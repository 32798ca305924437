//! The TetriServe policy: deadline-aware round-based scheduling (§4.2).
//!
//! Every round boundary the policy:
//!
//! 1. computes each pending request's **deadline-aware minimal-GPU-hour
//!    allocation plan** (§4.2.1, [`crate::allocation`]);
//! 2. builds the per-round **option sets** with survival indicators
//!    (Algorithm 1 lines 1–12, [`crate::options`]);
//! 3. runs the **group-knapsack DP** to pick at most one option per request
//!    under the free-GPU capacity (Algorithm 1 lines 13–22, [`crate::dp`]);
//! 4. maps widths to concrete GPU sets with **placement preservation**
//!    (§4.2.3, [`crate::placement`]);
//! 5. hands leftover capacity to **best-effort** late requests (≤ 1 GPU
//!    each, §4.2.2) —
//! 6. merges SLO-safe **selective batches** (§5, [`crate::batching`]); and
//! 7. applies **work-conserving elastic scale-up** (§4.2.3,
//!    [`crate::elastic`]).

use tetriserve_costmodel::CostTable;
use tetriserve_simulator::gpuset::GpuSet;
use tetriserve_simulator::time::{SimDuration, SimTime};

use crate::allocation::{min_gpu_hour_plan_capped, plan_is_feasible};
use crate::batching::{merge_batches, BatchDeadline};
use crate::config::{TetriServeConfig, ROUND_HEADROOM};
use crate::dp::{pack_round_into, PackScratch, Packing};
use crate::elastic::elastic_scale_up;
use crate::options::{build_options, OptionWindow, RequestOptions, RoundOption};
use crate::placement::{place, Assignment, PlacementRequest};
use crate::policy::{DispatchPlan, Policy, PolicyEvent, SchedContext};
use crate::tracker::QueuedRequest;

/// The TetriServe deadline-aware round-based scheduler.
#[derive(Debug, Clone)]
pub struct TetriServePolicy {
    config: TetriServeConfig,
    tau: SimDuration,
    /// Reusable knapsack working memory: after the first round the packing
    /// step performs no heap allocation (see [`PackScratch`]).
    scratch: PackScratch,
    packing: Packing,
    /// Reusable per-pass buffers for the queue, option sets and lists.
    buffers: RoundBuffers,
}

/// A pass's working buffers, kept across passes the way [`PackScratch`]
/// keeps the packer's: once they have seen the high-water queue, a pass
/// allocates nothing before the dispatches it returns. Every buffer is
/// cleared at the start of a pass, except `spare`, which only ever holds
/// option `Vec`s that are cleared before reuse, so no state carries over.
#[derive(Debug, Clone, Default)]
struct RoundBuffers {
    /// This pass's schedulable requests, in id order.
    queue: Vec<QueuedRequest>,
    /// Option sets of the requests the packer sees.
    packable: Vec<RequestOptions>,
    /// The queued request behind each option set (parallel to `packable`).
    packable_src: Vec<QueuedRequest>,
    /// Option buffers handed back by the previous pass's `packable`.
    spare: Vec<Vec<RoundOption>>,
    /// Definitely-late requests for the best-effort pass.
    best_effort: Vec<QueuedRequest>,
    /// Packed options that need GPUs.
    placement: Vec<PlacementRequest>,
}

impl TetriServePolicy {
    /// Creates the policy, deriving the round length from the cost table.
    pub fn new(config: TetriServeConfig, costs: &CostTable) -> Self {
        TetriServePolicy {
            config,
            tau: config.round_length(costs),
            scratch: PackScratch::new(),
            packing: Packing::default(),
            buffers: RoundBuffers::default(),
        }
    }

    /// Creates the policy with the paper-recommended defaults.
    pub fn with_defaults(costs: &CostTable) -> Self {
        TetriServePolicy::new(TetriServeConfig::default(), costs)
    }

    /// The round length τ.
    pub fn tau(&self) -> SimDuration {
        self.tau
    }

    /// The active configuration.
    pub fn config(&self) -> &TetriServeConfig {
        &self.config
    }

    /// Packing-step counters accumulated since construction: `(calls,
    /// early_exits, grow_events, allocations_avoided)`. The perf harness
    /// asserts `grow_events` stops increasing once the scratch is warm.
    /// Passes with no free GPU return before packing and are not counted.
    pub fn pack_stats(&self) -> (u64, u64, u64, u64) {
        (
            self.scratch.calls(),
            self.scratch.early_exits(),
            self.scratch.grow_events(),
            self.scratch.allocations_avoided(),
        )
    }
}

impl Policy for TetriServePolicy {
    fn name(&self) -> String {
        "TetriServe".to_owned()
    }

    fn reacts_to(&self, event: PolicyEvent) -> bool {
        // Round boundaries do the global repacking; arrivals and dispatch
        // completions trigger work-conserving *backfill* passes that only
        // dispatch up to the next boundary, so admission latency is not
        // quantised to τ while the round discipline is preserved.
        matches!(
            event,
            PolicyEvent::RoundTick | PolicyEvent::Arrival | PolicyEvent::DispatchDone
        )
    }

    fn next_tick(&self, now: SimTime) -> Option<SimTime> {
        // Next boundary of the τ grid (anchored at t = 0) strictly after
        // `now`. Ticks always fire on-grid, so for the serving loop's
        // tick-chain this equals `now + τ`; the grid form matters when the
        // chain is re-seeded mid-round (a fleet arrival after an idle gap)
        // — an off-grid chain would never hit `at_boundary` again.
        let tau_us = self.tau.as_micros();
        Some(SimTime::from_micros(
            (now.as_micros() / tau_us + 1) * tau_us,
        ))
    }

    fn schedule(&mut self, ctx: &SchedContext<'_>) -> Vec<DispatchPlan> {
        // Health view: never plan around parallelism that down GPUs cannot
        // provide. With everything down there is nothing to schedule. With
        // nothing free there is nothing to dispatch either: the packer gets
        // zero capacity, best effort finds no GPU, and neither batching nor
        // elastic scale-up has an assignment to work on — so return before
        // planning.
        if ctx.healthy.is_empty() || ctx.free.is_empty() {
            return Vec::new();
        }
        let now = ctx.now;
        // The round grid is anchored at t = 0 with period τ. At a boundary
        // the scheduling window is a full round; mid-round (backfill) it is
        // the residual time to the next boundary.
        let tau_us = self.tau.as_micros();
        let rem_us = now.as_micros() % tau_us;
        let at_boundary = rem_us == 0;
        let window = if at_boundary {
            self.tau
        } else {
            SimDuration::from_micros(tau_us - rem_us)
        };
        let t_next = now + window;
        let costs = ctx.costs;
        let topology = costs.cluster().topology();
        let healthy_cap = ctx.healthy.len().min(ctx.n_gpus);
        let option_window = OptionWindow {
            tau: window,
            t_next,
            n_gpus: healthy_cap,
            reconfig_allowance: self.config.reconfig_allowance,
            allow_boundary_crossing: at_boundary,
        };
        let RoundBuffers {
            queue,
            packable,
            packable_src,
            spare,
            best_effort,
            placement,
        } = &mut self.buffers;
        ctx.tracker.schedulable_into(now, queue);
        spare.extend(packable.drain(..).map(|o| o.options));
        packable_src.clear();
        best_effort.clear();
        placement.clear();

        // ── 1+2: allocation plans and option sets. ──────────────────────
        for r in queue.iter() {
            if now > r.spec.deadline {
                best_effort.push(*r);
                continue;
            }
            let res = r.spec.resolution;
            // Budget for the tail VAE decode (it is on the completion path
            // even though it is off the GPUs' critical path), and inflate
            // step times by the round headroom so the plan retains exactly
            // the margin round quantisation will consume.
            let frames = r.spec.stages.frames;
            let decode = costs.model().decode_time_frames(
                res,
                costs.cluster().gpu.effective_tflops(),
                frames,
            );
            // Planning works in single-frame step times; a video request's
            // dispatches run `frames`× longer, so shrink the slack budget by
            // the same factor (exact identity at frames = 1).
            let slack =
                r.spec.deadline.saturating_since(now).saturating_sub(decode) / u64::from(frames);
            let plan = if option_window.admits_no_step(res, costs) {
                // Backfill window shorter than any step: the option set is
                // none-only whatever the plan, so only the plan's verdict
                // matters — and that follows from the fastest degree alone.
                let feasible = [ROUND_HEADROOM, 1.0].into_iter().any(|headroom| {
                    plan_is_feasible(res, r.remaining_steps, slack, costs, headroom, healthy_cap)
                });
                if !feasible {
                    best_effort.push(*r);
                    continue;
                }
                None
            } else {
                let mut plan = min_gpu_hour_plan_capped(
                    res,
                    r.remaining_steps,
                    slack,
                    costs,
                    ROUND_HEADROOM,
                    healthy_cap,
                );
                if !plan.feasible {
                    // Infeasible with quantisation margin — retry at the
                    // knife edge before writing the request off. Only a
                    // request that misses even the un-inflated bound is
                    // definitely late (§4.2.2: at most one GPU, best effort).
                    plan = min_gpu_hour_plan_capped(
                        res,
                        r.remaining_steps,
                        slack,
                        costs,
                        1.0,
                        healthy_cap,
                    );
                    if !plan.feasible {
                        best_effort.push(*r);
                        continue;
                    }
                }
                Some(plan)
            };
            let buf = spare.pop().unwrap_or_default();
            let id = r.spec.id;
            let deadline = r.spec.deadline;
            let mut opts = match &plan {
                Some(plan) => build_options(
                    buf,
                    id,
                    res,
                    deadline,
                    plan,
                    r.last_gpus.map(|g| g.len()),
                    &option_window,
                    costs,
                ),
                None => RequestOptions::idle(
                    buf,
                    id,
                    res,
                    deadline,
                    r.remaining_steps,
                    &option_window,
                    costs,
                ),
            };
            opts.progress =
                f64::from(r.spec.total_steps - r.remaining_steps) / f64::from(r.spec.total_steps);
            packable.push(opts);
            packable_src.push(*r);
        }
        // Room to take back every option buffer next pass without growing.
        spare.reserve(packable.len());

        // ── 3: group-knapsack packing over the free capacity. ───────────
        pack_round_into(
            packable,
            ctx.free.len(),
            &mut self.scratch,
            &mut self.packing,
        );

        // ── 4: placement with preservation. ─────────────────────────────
        let picks = packable.iter().zip(packable_src.iter());
        placement.extend(
            picks
                .zip(&self.packing.choices)
                .filter_map(|((opts, r), choice)| {
                    let option = opts.option(choice.option_index);
                    option.segment.map(|_| PlacementRequest {
                        id: opts.id,
                        resolution: opts.resolution,
                        width: option.width,
                        steps: option.steps,
                        remaining_before: r.remaining_steps,
                        previous: r.last_gpus,
                    })
                }),
        );
        let mut assignments = place(
            placement,
            ctx.free,
            self.config.placement_preservation,
            &topology,
        );
        let mut free = ctx.free;
        for a in &assignments {
            free = free.difference(a.gpus);
        }

        // ── 5: best-effort for late requests (§4.2.2): at most one GPU,
        // EDF order, never displacing packed work. With elastic scale-up
        // enabled, only the EDF head runs per round: admitting several late
        // requests at once would let the elastic pass split the node
        // between them, and for large resolutions fragmented halves cost
        // far more GPU-hours than serving the late queue one request at a
        // time at full width — under saturation that fragmentation
        // cascades into collapse. Without elastic scale-up nothing widens
        // the head, so the late requests run 1 GPU each in parallel (the
        // paper's literal reading). Keys are unique, so the unstable
        // (allocation-free) sort is deterministic.
        best_effort.sort_unstable_by_key(|r| (r.spec.deadline, r.spec.id));
        let late_cap = if self.config.elastic_scale_up {
            1
        } else {
            usize::MAX
        };
        for r in best_effort.iter().take(late_cap) {
            let Some(gpu_lowest) = free.lowest() else {
                break;
            };
            // Prefer the previously used GPU when it is free and single.
            let gpu = match r.last_gpus {
                Some(prev) if prev.len() == 1 && free.is_superset_of(prev) => prev,
                _ => GpuSet::single(gpu_lowest),
            };
            // Effective, not nominal: sizing against a throttled GPU's
            // nominal speed would overrun the boundary and hold the GPU
            // into the next round's packing.
            let t1 = ctx.effective_step_time(r.spec.resolution, 1, 1, gpu);
            let mut steps = (window.div_floor(t1) as u32).min(r.remaining_steps);
            if steps == 0 {
                if !at_boundary {
                    continue; // backfill never crosses the boundary
                }
                steps = 1;
            }
            free = free.difference(gpu);
            assignments.push(Assignment {
                requests: vec![r.spec.id],
                resolution: r.spec.resolution,
                gpus: gpu,
                steps,
                remaining_before: r.remaining_steps,
            });
        }

        // ── 6: selective continuous batching. ───────────────────────────
        if self.config.selective_batching {
            // Every assigned id came from this pass's id-ordered queue.
            let deadlines = |id| {
                let i = queue.binary_search_by_key(&id, |r| r.spec.id).ok()?;
                queue.get(i).map(|r| BatchDeadline {
                    deadline: r.spec.deadline,
                    remaining: r.remaining_steps,
                })
            };
            let tau_eff = window.saturating_sub(self.config.reconfig_allowance);
            let freed = merge_batches(&mut assignments, &deadlines, costs, tau_eff, t_next);
            free = free.union(freed);
        }

        // ── 7: work-conserving elastic scale-up. ────────────────────────
        if self.config.elastic_scale_up {
            elastic_scale_up(
                &mut assignments,
                &mut free,
                costs,
                &topology,
                window.saturating_sub(self.config.reconfig_allowance),
                self.config.elastic_min_benefit,
            );
        }

        assignments
            .into_iter()
            .map(|a| DispatchPlan {
                requests: a.requests,
                gpus: a.gpus,
                steps: a.steps,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::RequestSpec;
    use crate::tracker::RequestTracker;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution, StageProfile};
    use tetriserve_simulator::failure::FailurePlan;
    use tetriserve_simulator::time::SimDuration;
    use tetriserve_simulator::trace::{RequestId, TenantId};

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    fn spec(id: u64, res: Resolution, arrival_s: f64, slo_s: f64) -> RequestSpec {
        RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(id),
            resolution: res,
            arrival: SimTime::from_secs_f64(arrival_s),
            deadline: SimTime::from_secs_f64(arrival_s + slo_s),
            total_steps: 50,
            stages: StageProfile::FLAT,
        }
    }

    fn run_round(
        policy: &mut TetriServePolicy,
        tracker: &RequestTracker,
        costs: &CostTable,
        now: SimTime,
    ) -> Vec<DispatchPlan> {
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker,
            costs,
            failures: &failures,
        };
        let plans = policy.schedule(&ctx);
        crate::policy::validate_plans(&plans, &ctx).expect("plans are valid");
        plans
    }

    #[test]
    fn urgent_large_request_gets_max_parallelism() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R2048, 0.0, 5.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].degree(), 8, "2048² in 5 s needs SP=8");
        assert!(plans[0].steps >= 1);
    }

    #[test]
    fn relaxed_small_request_stays_narrow() {
        // Elastic scale-up disabled so we observe the allocator's choice:
        // without deadline pressure the minimal-GPU-hour degree (SP=1) wins.
        let c = costs();
        let cfg = TetriServeConfig {
            elastic_scale_up: false,
            ..TetriServeConfig::default()
        };
        let mut policy = TetriServePolicy::new(cfg, &c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R256, 0.0, 10.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        assert_eq!(plans.len(), 1);
        assert_eq!(
            plans[0].degree(),
            1,
            "no deadline pressure -> min GPU-hours"
        );
    }

    #[test]
    fn deadline_critical_request_wins_the_contended_round() {
        // A 2048² at SLO 5 s dies unless it runs *now* at SP=8, while the
        // smaller requests survive waiting a round. The DP must give the
        // whole node to the large request.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R2048, 0.0, 5.0));
        tracker.admit(spec(2, Resolution::R1024, 0.0, 3.0));
        tracker.admit(spec(3, Resolution::R256, 0.0, 1.5));
        tracker.admit(spec(4, Resolution::R512, 0.0, 2.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        let used: usize = plans
            .iter()
            .map(|p| p.degree() * p.requests.len().min(1))
            .sum();
        assert!(used <= 8);
        let p1 = plans
            .iter()
            .find(|p| p.requests.contains(&RequestId(1)))
            .expect("2048² must run this round");
        // Its mixed-degree plan lets it start at SP=4 (Figure 6's shape) or
        // take the whole node — either way it must make progress now.
        assert!(p1.degree() >= 4, "{plans:?}");
    }

    #[test]
    fn mixed_workload_fills_capacity_when_everyone_fits() {
        // Without the monster request, the three smaller ones pack together.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(2, Resolution::R1024, 0.0, 3.0));
        tracker.admit(spec(3, Resolution::R256, 0.0, 1.5));
        tracker.admit(spec(4, Resolution::R512, 0.0, 2.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        let scheduled: usize = plans.iter().map(|p| p.requests.len()).sum();
        assert_eq!(scheduled, 3, "{plans:?}");
        let mut union = GpuSet::EMPTY;
        for p in &plans {
            assert!(union.is_disjoint(p.gpus));
            union = union.union(p.gpus);
        }
        assert!(union.len() <= 8);
    }

    #[test]
    fn past_deadline_requests_run_best_effort_on_one_gpu() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        tracker.admit(spec(1, Resolution::R1024, 0.0, 3.0));
        // Far past its deadline; probe at a round boundary (multiple of τ).
        let now = SimTime::ZERO + policy.tau() * 20;
        let plans = run_round(&mut policy, &tracker, &c, now);
        assert_eq!(plans.len(), 1);
        // Best-effort starts at 1 GPU; elastic scale-up may widen it since
        // the cluster is otherwise idle (work conservation, §4.2.3).
        assert!(plans[0].degree() >= 1);
        let without_elastic = {
            let cfg = TetriServeConfig {
                elastic_scale_up: false,
                ..TetriServeConfig::default()
            };
            let mut p = TetriServePolicy::new(cfg, &c);
            run_round(&mut p, &tracker, &c, now)
        };
        assert_eq!(without_elastic[0].degree(), 1, "≤1 GPU without elastic");
    }

    #[test]
    fn definitely_late_does_not_steal_from_savable() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        // Impossible: 2048² in 1 s.
        tracker.admit(spec(1, Resolution::R2048, 0.0, 1.0));
        // Savable but needs the full node: another 2048² in 5 s.
        tracker.admit(spec(2, Resolution::R2048, 0.0, 5.0));
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        let p2 = plans
            .iter()
            .find(|p| p.requests.contains(&RequestId(2)))
            .expect("savable request scheduled");
        assert_eq!(p2.degree(), 8, "savable request gets the full node");
        assert!(
            !plans.iter().any(|p| p.requests.contains(&RequestId(1))),
            "doomed request must not displace the savable one: {plans:?}"
        );
    }

    #[test]
    fn batching_merges_identical_small_requests() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        for id in 0..12 {
            tracker.admit(spec(id, Resolution::R256, 0.0, 10.0));
        }
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        // 12 relaxed 256² requests on 8 GPUs: batching must kick in.
        assert!(
            plans.iter().any(|p| p.requests.len() > 1),
            "expected at least one batched dispatch: {plans:?}"
        );
        let total: usize = plans.iter().map(|p| p.requests.len()).sum();
        assert!(total <= 12);
    }

    #[test]
    fn elastic_scale_up_uses_idle_gpus() {
        let c = costs();
        let mut tracker = RequestTracker::new();
        // One relaxed 1024²: min-GPU-hours says SP=1, but the other 7 GPUs
        // are idle — elastic scale-up should widen it.
        tracker.admit(spec(1, Resolution::R1024, 0.0, 30.0));
        let mut with = TetriServePolicy::with_defaults(&c);
        let plans = run_round(&mut with, &tracker, &c, SimTime::ZERO);
        assert!(plans[0].degree() > 1, "idle GPUs reclaimed: {plans:?}");

        let cfg = TetriServeConfig {
            elastic_scale_up: false,
            ..TetriServeConfig::default()
        };
        let mut without = TetriServePolicy::new(cfg, &c);
        let plans = run_round(&mut without, &tracker, &c, SimTime::ZERO);
        assert_eq!(plans[0].degree(), 1);
    }

    #[test]
    fn round_tick_chain_is_tau_spaced() {
        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        let t0 = SimTime::ZERO;
        let t1 = policy.next_tick(t0).unwrap();
        let t2 = policy.next_tick(t1).unwrap();
        assert_eq!(t1.saturating_since(t0), policy.tau());
        assert_eq!(t2.saturating_since(t1), policy.tau());
        assert!(policy.reacts_to(PolicyEvent::RoundTick));
        // Arrivals and completions trigger backfill passes too.
        assert!(policy.reacts_to(PolicyEvent::Arrival));
        assert!(policy.reacts_to(PolicyEvent::DispatchDone));
    }

    #[test]
    fn backfill_dispatches_fresh_arrivals_mid_round() {
        // A request arriving mid-round on an idle cluster must not wait for
        // the next boundary: the backfill pass sizes a dispatch to the
        // residual window.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        let mid = SimTime::ZERO + policy.tau() / 2;
        tracker.admit(RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(1),
            resolution: Resolution::R2048,
            arrival: mid,
            deadline: mid + SimDuration::from_secs_f64(5.0),
            total_steps: 50,
            stages: StageProfile::FLAT,
        });
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now: mid,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &c,
            failures: &failures,
        };
        let plans = policy.schedule(&ctx);
        crate::policy::validate_plans(&plans, &ctx).expect("valid");
        assert_eq!(plans.len(), 1, "backfill must start the request now");
        // The dispatch fits the residual half-round window.
        let per = c.step_time(Resolution::R2048, plans[0].degree(), 1);
        let window = policy.tau() / 2;
        assert!(
            per * u64::from(plans[0].steps) <= window,
            "backfill dispatch must not cross the boundary: {} × {} > {}",
            per,
            plans[0].steps,
            window
        );
    }

    #[test]
    fn backfill_never_emits_boundary_crossing_work() {
        // With only a sliver of the round left, nothing fits and the
        // backfill pass must stay silent rather than hold GPUs into the
        // next round's packing.
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let mut tracker = RequestTracker::new();
        let sliver = SimTime::ZERO + policy.tau() - SimDuration::from_millis(1);
        tracker.admit(RequestSpec {
            tenant: TenantId::UNTAGGED,
            id: RequestId(1),
            resolution: Resolution::R2048,
            arrival: sliver,
            deadline: sliver + SimDuration::from_secs_f64(5.0),
            total_steps: 50,
            stages: StageProfile::FLAT,
        });
        let failures = FailurePlan::none();
        let ctx = SchedContext {
            now: sliver,
            free: GpuSet::first_n(8),
            healthy: GpuSet::first_n(8),
            n_gpus: 8,
            tracker: &tracker,
            costs: &c,
            failures: &failures,
        };
        let plans = policy.schedule(&ctx);
        assert!(plans.is_empty(), "{plans:?}");
    }

    #[test]
    fn empty_queue_schedules_nothing() {
        let c = costs();
        let mut policy = TetriServePolicy::with_defaults(&c);
        let tracker = RequestTracker::new();
        let plans = run_round(&mut policy, &tracker, &c, SimTime::ZERO);
        assert!(plans.is_empty());
    }
}
