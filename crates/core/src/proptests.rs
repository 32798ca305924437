//! Cross-module property tests for the scheduler's building blocks.
//!
//! These complement the per-module unit tests with randomised invariants:
//! the allocator never violates the deadline it claims to meet and never
//! beats a brute-force optimum; placement never overlaps and always
//! preserves when it can; the option builder respects Algorithm 1's
//! definitions for arbitrary plans.

#![cfg(test)]

use proptest::prelude::*;

use tetriserve_costmodel::{ClusterSpec, CostTable, DitModel, Profiler, Resolution, StageProfile};
use tetriserve_simulator::failure::{FailurePlan, GpuFault, PerfFault};
use tetriserve_simulator::gpuset::{GpuId, GpuSet};
use tetriserve_simulator::time::{SimDuration, SimTime};
use tetriserve_simulator::topology::Topology;
use tetriserve_simulator::trace::{RequestId, TenantId};

use crate::allocation::{
    fastest_degree_within, min_gpu_hour_plan, min_gpu_hour_plan_capped, plan_is_feasible,
    useful_degrees,
};
use crate::config::{AdmissionPolicy, TetriServeConfig, ROUND_HEADROOM};
use crate::feasibility;
use crate::options::{build_options, OptionWindow, RequestOptions};
use crate::placement::{place, PlacementRequest};
use crate::policy::{Policy, SchedContext};
use crate::request::RequestSpec;
use crate::scheduler::TetriServePolicy;
use crate::server::{ClusterLoad, ClusterSim, Server, ServerConfig};
use crate::stage::{backpropagate_deadlines, PoolLayout};
use crate::tracker::{Phase, RequestTracker};
use tetriserve_costmodel::stage::StageKind;

fn costs() -> CostTable {
    Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
}

fn resolution_strategy() -> impl Strategy<Value = Resolution> {
    (0usize..4).prop_map(|i| Resolution::PRODUCTION[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A feasible plan's claimed runtime really fits the slack, covers all
    /// steps, uses only profiled degrees, and its GPU-second cost is
    /// optimal among all two-degree splits (brute force).
    #[test]
    fn prop_allocation_sound_and_optimal(
        res in resolution_strategy(),
        steps in 1u32..60,
        slack_ms in 50u64..20_000,
    ) {
        let c = costs();
        let slack = SimDuration::from_millis(slack_ms);
        let plan = min_gpu_hour_plan(res, steps, slack, &c);
        prop_assert_eq!(plan.total_steps(), steps);
        let degrees: Vec<usize> = useful_degrees(res, &c).collect();
        for seg in plan.segments() {
            prop_assert!(degrees.contains(&seg.degree));
        }
        if plan.feasible {
            prop_assert!(plan.runtime(res, &c) <= slack);
            // Brute-force optimum over all ordered two-degree splits.
            let mut best = f64::INFINITY;
            for &a in &degrees {
                for &b in &degrees {
                    for s_a in 0..=steps {
                        let s_b = steps - s_a;
                        let t = c.step_time(res, a, 1) * u64::from(s_a)
                            + c.step_time(res, b, 1) * u64::from(s_b);
                        if t <= slack {
                            let cost = c.gpu_seconds(res, a) * f64::from(s_a)
                                + c.gpu_seconds(res, b) * f64::from(s_b);
                            best = best.min(cost);
                        }
                    }
                }
            }
            let got = plan.gpu_seconds(res, &c);
            prop_assert!(
                got <= best * (1.0 + 1e-9),
                "plan cost {got} must match brute force {best}"
            );
        } else {
            // Infeasible means even the fastest degree misses.
            let fastest = *degrees.last().unwrap();
            let t = c.step_time(res, fastest, 1) * u64::from(steps);
            prop_assert!(t > slack);
        }
    }

    /// The incremental live index and the full-tracker recompute agree —
    /// bit-identical demand entries, the same feasibility verdict, and
    /// the same at-risk prefix — under arbitrary interleavings of every
    /// tracker mutation (admit, dispatch, abort, fail, shed, degrade,
    /// migrate out/in, complete), with terminal requests accumulating in
    /// the tracker exactly as they do over a long serving run.
    #[test]
    fn prop_incremental_feasibility_matches_full_recompute(
        ops in proptest::collection::vec((0u8..10, any::<u32>()), 1..60),
        capacity in 1.0f64..16.0,
    ) {
        let c = costs();
        let mut tracker = RequestTracker::new();
        let mut next_id = 0u64;
        let mut now = SimTime::ZERO;

        // Ids currently in a given phase, queried fresh each op.
        let ids_in = |t: &RequestTracker, want: fn(&Phase) -> bool| -> Vec<RequestId> {
            t.iter()
                .filter(|r| want(&r.phase))
                .map(|r| r.spec.id)
                .collect()
        };
        let pick = |v: &[RequestId], r: u32| v[r as usize % v.len()];

        for (op, r) in ops {
            now += SimDuration::from_millis(u64::from(r % 200));
            let queued = ids_in(&tracker, |p| *p == Phase::Queued);
            let running = ids_in(&tracker, |p| *p == Phase::Running);
            match op {
                // Dispatch part of a queued request's budget.
                0 if !queued.is_empty() => {
                    let id = pick(&queued, r);
                    let rem = tracker.get(id).unwrap().remaining_steps;
                    if rem == 0 {
                        tracker.complete(id, now);
                    } else {
                        let steps = 1 + r % rem;
                        let gpus = GpuSet::contiguous(0, 1 << (r % 3));
                        tracker.start_dispatch(id, gpus, steps, 0.25);
                    }
                }
                // Finish a running dispatch.
                1 if !running.is_empty() => {
                    tracker.finish_dispatch(pick(&running, r));
                }
                // Fault-abort a running dispatch, restoring lost steps.
                2 if !running.is_empty() => {
                    let id = pick(&running, r);
                    let t = tracker.get(id).unwrap();
                    let executed = t.steps_executed();
                    let lost = r % (executed + 1);
                    tracker.abort_dispatch(id, GpuSet::contiguous(0, 1), lost);
                }
                // Terminal failure from either live phase.
                3 if !queued.is_empty() || !running.is_empty() => {
                    let pool = if queued.is_empty() { &running } else { &queued };
                    tracker.fail(pick(pool, r));
                }
                // Admission-shed a still-fresh queued request.
                4 => {
                    let fresh: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| {
                            let t = tracker.get(id).unwrap();
                            t.remaining_steps + t.steps_shed == t.spec.total_steps
                        })
                        .collect();
                    if !fresh.is_empty() {
                        tracker.shed(pick(&fresh, r));
                    }
                }
                // Degrade ladder: shed steps from a queued budget.
                5 => {
                    let thick: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| tracker.get(id).unwrap().remaining_steps >= 2)
                        .collect();
                    if !thick.is_empty() {
                        let id = pick(&thick, r);
                        let rem = tracker.get(id).unwrap().remaining_steps;
                        tracker.shed_steps(id, 1 + r % (rem - 1));
                    }
                }
                // Migration round-trip: extract and re-admit (deadline
                // unchanged — the index key must survive the cycle).
                6 => {
                    let movable: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| tracker.get(id).unwrap().remaining_steps > 0)
                        .collect();
                    if !movable.is_empty() {
                        let m = tracker.extract_queued(pick(&movable, r));
                        tracker.admit_migrated(m);
                    }
                }
                // Complete a drained request.
                7 => {
                    let done_ready: Vec<RequestId> = queued
                        .iter()
                        .copied()
                        .filter(|&id| tracker.get(id).unwrap().remaining_steps == 0)
                        .collect();
                    if !done_ready.is_empty() {
                        tracker.complete(pick(&done_ready, r), now);
                    }
                }
                // Default (and fall-through when a pool was empty): admit.
                _ => {
                    let res = Resolution::PRODUCTION[(r % 4) as usize];
                    tracker.admit(RequestSpec {
                        tenant: TenantId::UNTAGGED,
                        id: RequestId(next_id),
                        resolution: res,
                        arrival: now,
                        deadline: now + SimDuration::from_millis(100 + u64::from(r % 9000)),
                        total_steps: 1 + r % 50,
                        stages: StageProfile::FLAT,
                    });
                    next_id += 1;
                }
            }

            prop_assert!(tracker.index_is_consistent(), "index drifted after op {op}");
            let inc = feasibility::live_entries(&tracker, now, &c);
            let full = feasibility::live_entries_full(&tracker, now, &c);
            prop_assert!(
                feasibility::entries_bit_identical(&inc, &full),
                "incremental {inc:?} != full {full:?}"
            );
            prop_assert_eq!(
                feasibility::edf_feasible_capacity(&inc, now, capacity),
                feasibility::edf_feasible_capacity(&full, now, capacity)
            );
            prop_assert_eq!(
                feasibility::edf_at_risk_capacity(&inc, now, capacity),
                feasibility::edf_at_risk_capacity(&full, now, capacity)
            );
        }
    }

    /// Placement never overlaps, respects widths, stays within the free
    /// pool, and preserves a previous same-width placement when free.
    #[test]
    fn prop_placement_invariants(
        widths in proptest::collection::vec(0usize..3, 1..5), // 2^w ∈ {1,2,4}
        preserve in any::<bool>(),
        prev_start in 0usize..7,
    ) {
        let topo = Topology::h100_nvlink(8);
        let widths: Vec<usize> = widths.into_iter().map(|w| 1usize << w).collect();
        prop_assume!(widths.iter().sum::<usize>() <= 8);
        let prev_width = widths[0];
        prop_assume!(prev_start + prev_width <= 8);
        let previous = GpuSet::contiguous(prev_start, prev_width);
        let reqs: Vec<PlacementRequest> = widths
            .iter()
            .enumerate()
            .map(|(i, &w)| PlacementRequest {
                id: RequestId(i as u64),
                resolution: Resolution::R512,
                width: w,
                steps: 5,
                remaining_before: 50,
                previous: if i == 0 { Some(previous) } else { None },
            })
            .collect();
        let out = place(&reqs, GpuSet::first_n(8), preserve, &topo);
        prop_assert_eq!(out.len(), reqs.len());
        let mut used = GpuSet::EMPTY;
        for (a, r) in out.iter().zip(&reqs) {
            prop_assert_eq!(a.gpus.len(), r.width);
            prop_assert!(used.is_disjoint(a.gpus), "overlap at {:?}", a.gpus);
            used = used.union(a.gpus);
        }
        if preserve {
            prop_assert_eq!(out[0].gpus, previous, "same-width previous set must be kept");
        }
    }

    /// Algorithm 1 option construction: none is first with zero width, `q`
    /// never exceeds remaining steps, widths come from the plan, and the
    /// survival indicator matches its definition.
    #[test]
    fn prop_options_match_algorithm_one(
        res in resolution_strategy(),
        steps in 1u32..60,
        slack_ms in 100u64..20_000,
        deadline_ms in 100u64..30_000,
        gran in 1u64..8,
    ) {
        let c = costs();
        let plan = min_gpu_hour_plan(res, steps, SimDuration::from_millis(slack_ms), &c);
        let tau = c.t_min(Resolution::R2048) * gran;
        let t_next = SimTime::ZERO + tau;
        let deadline = SimTime::from_millis(deadline_ms);
        let opts = build_options(
            Vec::new(),
            RequestId(0),
            res,
            deadline,
            &plan,
            None,
            &OptionWindow {
                tau,
                t_next,
                n_gpus: 8,
                reconfig_allowance: SimDuration::ZERO,
                allow_boundary_crossing: true,
            },
            &c,
        );
        prop_assert_eq!(opts.options[0].width, 0);
        prop_assert_eq!(opts.options[0].steps, 0);
        let t_min = c.t_min(res);
        for o in &opts.options {
            prop_assert!(o.steps <= steps);
            if o.segment.is_some() {
                prop_assert!(plan.segments().iter().any(|s| s.degree == o.width));
                prop_assert!(o.steps >= 1);
            }
            // sv_i(o) = [t_next + (remaining - q)·T_min <= D_i]
            let lb = t_min * u64::from(steps - o.steps);
            prop_assert_eq!(o.survives, t_next + lb <= deadline);
        }
    }
}

fn stage_profile_strategy(max_frames: u32) -> impl Strategy<Value = StageProfile> {
    (any::<bool>(), 1u32..max_frames).prop_map(|(encode, frames)| StageProfile { encode, frames })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// EDF backward propagation never places a stage deadline after the
    /// request deadline, keeps deadlines non-decreasing in execution
    /// order, and hands the final stage exactly the request deadline.
    #[test]
    fn prop_stage_deadlines_bounded_by_request_deadline(
        deadline_ms in 0u64..600_000,
        profile in stage_profile_strategy(32),
        steps in 1u32..80,
        unit_ms in 1u64..2_000,
    ) {
        let deadline = SimTime::from_micros(deadline_ms * 1_000);
        let chain: Vec<(StageKind, SimDuration)> = profile
            .chain(steps)
            .into_iter()
            .map(|(kind, units)| (kind, SimDuration::from_millis(unit_ms) * u64::from(units)))
            .collect();
        let out = backpropagate_deadlines(deadline, &chain);
        prop_assert_eq!(out.len(), chain.len());
        let mut prev = SimTime::from_micros(0);
        for (s, &(kind, duration)) in out.iter().zip(&chain) {
            prop_assert_eq!(s.kind, kind);
            prop_assert_eq!(s.duration, duration);
            prop_assert!(s.deadline <= deadline, "stage deadline after request deadline");
            prop_assert!(s.deadline >= prev, "stage deadlines must be non-decreasing");
            prev = s.deadline;
        }
        prop_assert_eq!(out.last().unwrap().deadline, deadline);
    }

    /// Frame-count scaling of decode demand is monotone and exactly
    /// integer (`frames == 1` is the flat identity, bit-for-bit).
    #[test]
    fn prop_frame_scaling_is_monotone(
        res in resolution_strategy(),
        frames in 1u32..64,
    ) {
        let c = costs();
        let tflops = c.cluster().gpu.effective_tflops();
        let m = c.model();
        let base = m.decode_time_frames(res, tflops, 1);
        let lo = m.decode_time_frames(res, tflops, frames);
        let hi = m.decode_time_frames(res, tflops, frames + 1);
        prop_assert!(lo <= hi, "decode demand must not shrink with more frames");
        prop_assert_eq!(lo, base * u64::from(frames));
        let p_lo = StageProfile { encode: false, frames };
        let p_hi = StageProfile { encode: false, frames: frames + 1 };
        prop_assert!(p_lo.frame_factor() <= p_hi.frame_factor());
        prop_assert_eq!(StageProfile::FLAT.frame_factor().to_bits(), 1.0f64.to_bits());
    }
}

proptest! {
    // Each case runs a full serving simulation; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Stage-chain conservation end to end: for every *served* request,
    /// the encode + denoise + decode durations reported by
    /// `stage_breakdown` sum exactly (integer microseconds) to the
    /// request's end-to-end latency — under both pool layouts, arbitrary
    /// stage profiles, and whatever queueing/retries the run produced.
    #[test]
    fn prop_stage_breakdown_conserves_served_latency(
        n in 1usize..8,
        offset_ms in 0u64..500,
        slo_s in 2.0f64..30.0,
        profile in stage_profile_strategy(5),
        disagg in any::<bool>(),
    ) {
        let c = costs();
        let policy = TetriServePolicy::with_defaults(&c);
        let mut server = Server::with_config(c, policy, ServerConfig::default());
        if disagg {
            server.config_mut().pool = PoolLayout::disaggregated_default();
        }
        let specs: Vec<RequestSpec> = (0..n)
            .map(|i| {
                let arrival = SimTime::from_micros((offset_ms + 137 * i as u64) * 1_000);
                RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    id: RequestId(i as u64),
                    resolution: Resolution::PRODUCTION[i % 4],
                    arrival,
                    deadline: arrival + SimDuration::from_secs_f64(slo_s),
                    total_steps: 30,
                    stages: profile,
                }
            })
            .collect();
        let report = server.run(specs);
        prop_assert_eq!(report.outcomes.len(), n);
        for o in &report.outcomes {
            if let Some(done) = o.completion {
                let (e, dn, dc) = o.stage_breakdown().unwrap();
                let latency = done.saturating_since(o.arrival);
                prop_assert_eq!(e + dn + dc, latency, "breakdown must conserve latency: {:?}", o);
            }
        }
    }
}

/// Every [`ClusterLoad`] field, floats as bit patterns, for exact
/// comparison.
fn load_bits(l: &ClusterLoad) -> [u64; 11] {
    [
        l.at.as_micros(),
        l.n_gpus as u64,
        l.healthy_gpus as u64,
        l.effective_gpus.to_bits(),
        l.free_gpus as u64,
        l.queued as u64,
        l.running as u64,
        l.backlog_steps,
        l.backlog_gpu_seconds.to_bits(),
        l.encode_backlog as u64,
        l.decode_backlog as u64,
    ]
}

proptest! {
    /// `ClusterSim::route_view` — one scratch refill, the arriving request
    /// merged into the scan — agrees bit for bit with the slow oracle: the
    /// full-tracker recompute plus push, sort and scan for the verdict,
    /// and a full recompute of every load field. The backlogs come from a
    /// real serving run (queued, running, encode-gated, decoding, shed
    /// and done requests), optionally under a hard fault and an active
    /// slowdown; probes cover instants before the cursor and arriving
    /// deadlines that tie a live one, where the id decides.
    #[test]
    fn prop_route_view_matches_full_recompute(
        arrivals in proptest::collection::vec(
            (0u64..8, 0usize..4, 500u64..12_000, 1u32..40, any::<bool>()),
            1..32,
        ),
        steps in 0usize..150,
        probes in proptest::collection::vec((any::<u32>(), 0u8..3, any::<u32>()), 1..8),
        slowdown in any::<bool>(),
        hard_fault in any::<bool>(),
        shed in any::<bool>(),
    ) {
        let c = costs();
        let mut cfg = ServerConfig::default();
        if shed {
            cfg.admission = AdmissionPolicy::ShedInfeasible;
        }
        if slowdown {
            cfg.engine.failures = cfg
                .engine
                .failures
                .clone()
                .with_perf_fault(PerfFault::brownout(GpuId(1), 1.7, SimTime::ZERO));
        }
        if hard_fault {
            cfg.engine.failures = cfg.engine.failures.clone().with_fault(GpuFault::transient(
                GpuId(6),
                SimTime::from_millis(400),
                SimTime::from_millis(2_500),
            ));
        }
        let failures = cfg.engine.failures.clone();
        let mut sim = ClusterSim::new(c.clone(), TetriServePolicy::with_defaults(&c), cfg);
        sim.start();
        let mut specs: Vec<RequestSpec> = arrivals
            .iter()
            .enumerate()
            .map(|(i, &(burst, res, slo_ms, steps, video))| {
                // Bursts of simultaneous arrivals queue up behind the
                // encode unit and the GPUs.
                let arrival = SimTime::from_millis(400 * burst);
                RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    // Even ids leave odd ones free for tie-breaking probes.
                    id: RequestId(2 * i as u64),
                    resolution: Resolution::PRODUCTION[res],
                    arrival,
                    deadline: arrival + SimDuration::from_millis(slo_ms),
                    total_steps: steps,
                    stages: if video { StageProfile::video(2) } else { StageProfile::FLAT },
                }
            })
            .collect();
        specs.sort_by_key(|s| (s.arrival, s.id));
        for s in specs {
            sim.push_arrival(s);
        }
        for _ in 0..steps {
            if !sim.step() {
                break;
            }
        }

        for (k, (r, mode, w)) in probes.into_iter().enumerate() {
            let offset = SimDuration::from_millis(u64::from(r % 3_000));
            // Mode 0 probes before the cursor; the others after it.
            let at = if mode == 0 {
                SimTime::from_micros(sim.now().as_micros().saturating_sub(offset.as_micros()))
            } else {
                sim.now() + offset
            };
            let clamped = at.max(sim.now());
            let live: Vec<(SimTime, RequestId)> = sim
                .tracker()
                .live()
                .map(|t| (t.spec.deadline, t.spec.id))
                .collect();
            // Mode 2 ties a live deadline, with an id just above or just
            // below the live request's (equal to it for id 0).
            let (deadline, id) = match live.get(w as usize % live.len().max(1)) {
                Some(&(d, live_id)) if mode == 2 => {
                    let id = if w % 2 == 0 {
                        live_id.0 + 1
                    } else {
                        live_id.0.saturating_sub(1)
                    };
                    (d, RequestId(id))
                }
                _ => (
                    clamped + SimDuration::from_millis(200 + u64::from(w % 9_000)),
                    RequestId(1_001 + 2 * k as u64),
                ),
            };
            let spec = RequestSpec {
                tenant: TenantId::UNTAGGED,
                id,
                resolution: Resolution::PRODUCTION[(w % 4) as usize],
                arrival: clamped,
                deadline,
                total_steps: 1 + w % 50,
                stages: if w % 3 == 0 { StageProfile::video(3) } else { StageProfile::FLAT },
            };

            // The oracle: full recompute, push, stable sort, scan.
            let tracker = sim.tracker();
            let mut entries = feasibility::live_entries_full(tracker, clamped, &c);
            let backlog_gpu_seconds: f64 = entries.iter().map(|e| e.demand).sum();
            entries.push(feasibility::demand_entry(
                &c,
                spec.id,
                spec.resolution,
                spec.stages,
                spec.total_steps,
                spec.deadline,
                clamped,
                true,
            ));
            feasibility::sort_entries(&mut entries);
            let healthy = GpuSet::first_n(8).difference(failures.down_gpus(clamped));
            let capacity = failures.effective_capacity(healthy, clamped);
            if slowdown {
                prop_assert!(capacity < healthy.len() as f64, "the slowdown must be active");
            }
            let feasible = feasibility::edf_feasible_capacity(&entries, clamped, capacity);
            let in_flight = |t: &&crate::tracker::TrackedRequest| {
                matches!(t.phase, Phase::Queued | Phase::Running)
            };
            let queued: Vec<_> = tracker
                .iter()
                .filter(|t| t.phase == Phase::Queued && t.remaining_steps > 0)
                .collect();
            let live_full = tracker
                .iter()
                .filter(in_flight)
                .filter(|t| t.remaining_steps > 0)
                .count();
            let snapshot = sim.load(at);
            let oracle = ClusterLoad {
                at: clamped,
                n_gpus: 8,
                healthy_gpus: healthy.len(),
                effective_gpus: capacity,
                // Held GPUs are engine state, not derived from the backlog.
                free_gpus: snapshot.free_gpus,
                queued: queued.len(),
                running: tracker.iter().filter(|t| t.phase == Phase::Running).count(),
                backlog_steps: tracker
                    .iter()
                    .filter(in_flight)
                    .map(|t| u64::from(t.remaining_steps))
                    .sum(),
                backlog_gpu_seconds,
                encode_backlog: queued.iter().filter(|t| t.encode_ready > clamped).count(),
                decode_backlog: tracker.iter().filter(in_flight).count() - live_full,
            };

            let (got_feasible, got) = sim.route_view(&spec, at);
            prop_assert_eq!(got_feasible, feasible, "probe {} at {}: {:?}", k, at, spec);
            prop_assert_eq!(load_bits(&got), load_bits(&oracle), "{:?} vs {:?}", got, oracle);
            prop_assert_eq!(load_bits(&got), load_bits(&snapshot));
        }
    }
}

/// Previous placement widths a queued request can carry.
const PREV_WIDTHS: [Option<usize>; 5] = [None, Some(1), Some(2), Some(4), Some(8)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The backfill shortcut is exact. Whenever a mid-round window admits
    /// no step at the fastest healthy degree, the fastest degree alone
    /// gives the same feasibility verdict as each full-search attempt and
    /// as the scheduler's two-attempt sequence, and the none-only option
    /// set equals what the full builder makes from the searched plan.
    /// Windows land just below, at and just above the fastest step, so a
    /// shortcut that fires one step too late is caught.
    #[test]
    fn prop_backfill_shortcut_matches_full_planning(
        res in resolution_strategy(),
        remaining in 1u32..60,
        budget_ms in 0u64..30_000,
        frames in 2u32..9,
        cap in 1usize..9,
        prev in 0usize..5,
        allowance_ms in 0u64..400,
        side in 0u8..3,
        offset_us in 0u64..1_000_000,
    ) {
        let c = costs();
        let now = SimTime::from_secs_f64(7.0);
        let deadline = now + SimDuration::from_millis(budget_ms);
        let decode = c.model().decode_time_frames(
            res,
            c.cluster().gpu.effective_tflops(),
            frames,
        );
        let slack = deadline.saturating_since(now).saturating_sub(decode) / u64::from(frames);
        let (_, t_fast) = fastest_degree_within(res, &c, cap).unwrap();
        let fast_us = t_fast.as_micros();
        let window = SimDuration::from_micros(match side {
            0 => fast_us.saturating_sub(1 + offset_us % fast_us),
            1 => fast_us,
            _ => fast_us + 1 + offset_us % fast_us,
        });
        let win = OptionWindow {
            tau: window,
            t_next: now + window,
            n_gpus: cap,
            reconfig_allowance: SimDuration::from_millis(allowance_ms),
            allow_boundary_crossing: false,
        };
        let fires = win.admits_no_step(res, &c);
        if window < t_fast {
            prop_assert!(fires, "a window below the fastest step must take the shortcut");
        }
        if fires {
            for headroom in [ROUND_HEADROOM, 1.0] {
                prop_assert_eq!(
                    plan_is_feasible(res, remaining, slack, &c, headroom, cap),
                    min_gpu_hour_plan_capped(res, remaining, slack, &c, headroom, cap).feasible
                );
            }
            let mut plan = min_gpu_hour_plan_capped(res, remaining, slack, &c, ROUND_HEADROOM, cap);
            if !plan.feasible {
                plan = min_gpu_hour_plan_capped(res, remaining, slack, &c, 1.0, cap);
            }
            let verdict = [ROUND_HEADROOM, 1.0]
                .into_iter()
                .any(|h| plan_is_feasible(res, remaining, slack, &c, h, cap));
            prop_assert_eq!(verdict, plan.feasible);

            let id = RequestId(1);
            let full = build_options(
                Vec::new(),
                id,
                res,
                deadline,
                &plan,
                PREV_WIDTHS[prev],
                &win,
                &c,
            );
            let idle = RequestOptions::idle(Vec::new(), id, res, deadline, remaining, &win, &c);
            prop_assert_eq!(full.options.len(), 1, "{:?}", full.options);
            prop_assert_eq!(&full.options, &idle.options);
            prop_assert_eq!(full.t_min, idle.t_min);
            prop_assert_eq!(full.remaining_steps, idle.remaining_steps);
        }
    }
}

/// One randomly generated scheduling context: the queued requests
/// (resolution, age in ms, SLO in ms, whether a dispatch already ran),
/// the pass time (round, on-grid flag, offset in thousandths of τ) and
/// the healthy and free GPU masks.
type PassSpec = (Vec<(usize, u64, u64, bool)>, (u64, bool, u64), (u64, u64));

fn pass_strategy() -> impl Strategy<Value = PassSpec> {
    (
        proptest::collection::vec(
            (0usize..4, 0u64..4_000, 100u64..20_000, any::<bool>()),
            0..10,
        ),
        (0u64..40, any::<bool>(), 1u64..1000),
        (any::<u64>(), any::<u64>()),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A policy whose round buffers are reused across a random sequence
    /// of passes — queues that grow and shrink, passes on and off the
    /// round grid, partial health and partial free sets — returns exactly
    /// the plans a freshly built policy returns for each pass. Stale
    /// options, queue entries or verdicts leaking through the reused
    /// buffers would show up as a difference.
    #[test]
    fn prop_reused_policy_matches_fresh_policy(
        passes in proptest::collection::vec(pass_strategy(), 1..12),
        elastic in any::<bool>(),
    ) {
        let c = costs();
        let config = TetriServeConfig {
            elastic_scale_up: elastic,
            ..TetriServeConfig::default()
        };
        let failures = FailurePlan::none();
        let mut reused = TetriServePolicy::new(config, &c);
        let tau = reused.tau();
        for (requests, (round, on_grid, offset), (healthy_mask, free_mask)) in passes {
            let mut now = SimTime::ZERO + tau * (round + 10);
            if !on_grid {
                now += tau * offset / 1000;
            }
            let mut tracker = RequestTracker::new();
            for (i, &(res, age_ms, slo_ms, ran)) in requests.iter().enumerate() {
                let arrival = SimTime::from_micros(
                    now.as_micros().saturating_sub(age_ms * 1000),
                );
                let id = RequestId(i as u64);
                tracker.admit(RequestSpec {
                    tenant: TenantId::UNTAGGED,
                    id,
                    resolution: Resolution::PRODUCTION[res],
                    arrival,
                    deadline: arrival + SimDuration::from_millis(slo_ms),
                    total_steps: 50,
                    stages: StageProfile::FLAT,
                });
                if ran {
                    let gpus = GpuSet::contiguous(i % 8 / 2 * 2, 1 + i % 2);
                    tracker.start_dispatch(id, gpus, 1 + (slo_ms % 40) as u32, 0.0);
                    tracker.finish_dispatch(id);
                }
            }
            let healthy = GpuSet::from_mask(healthy_mask & 0xff);
            let ctx = SchedContext {
                now,
                free: healthy.intersection(GpuSet::from_mask(free_mask)),
                healthy,
                n_gpus: 8,
                tracker: &tracker,
                costs: &c,
                failures: &failures,
            };
            let fresh = TetriServePolicy::new(config, &c).schedule(&ctx);
            prop_assert_eq!(reused.schedule(&ctx), fresh);
        }
    }
}

/// The per-degree `CostTable` formula that the demand rows replaced: it
/// re-resolves the resolution for every degree and recomputes the tail
/// stages from the model. Kept only as the oracle for
/// `prop_demand_rows_match_per_degree_formula`.
fn per_degree_step_demand(
    costs: &CostTable,
    res: Resolution,
    stages: StageProfile,
    remaining: u32,
    horizon: f64,
) -> f64 {
    let remaining_f = f64::from(remaining);
    let frames_f = stages.frame_factor();
    let tflops = costs.cluster().gpu.effective_tflops();
    let decode = costs
        .model()
        .decode_time_frames(res, tflops, stages.frames)
        .as_secs_f64();
    let encode = if stages.encode {
        costs.model().encode_time(res, tflops).as_secs_f64()
    } else {
        0.0
    };
    let per_step = costs
        .degrees()
        .iter()
        .filter(|&&k| {
            remaining_f * costs.step_time(res, k, 1).as_secs_f64() * ROUND_HEADROOM * frames_f
                + decode
                + encode
                <= horizon
        })
        .map(|&k| costs.gpu_seconds(res, k))
        .fold(f64::INFINITY, f64::min);
    if per_step.is_finite() {
        per_step
    } else {
        let fastest = costs
            .degrees()
            .iter()
            .copied()
            .min_by_key(|&k| costs.step_time(res, k, 1))
            .expect("cost table has at least one degree");
        costs.gpu_seconds(res, fastest)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The row-based demand is bit-identical to the per-degree formula on
    /// both fleet tables, every profiled resolution, frames 1–8, with and
    /// without an encode stage, at horizons from below the fastest degree
    /// to past the slowest — including each degree's exact admission
    /// threshold and the float just below it, where the `<=` decides.
    #[test]
    fn prop_demand_rows_match_per_degree_formula(
        a40 in any::<bool>(),
        res_pick in 0usize..64,
        frames in 1u32..=8,
        encode in any::<bool>(),
        remaining in 1u32..=50,
        fraction in 0.0f64..1.5,
    ) {
        let spec = if a40 { ClusterSpec::a40x4() } else { ClusterSpec::h100x8() };
        let c = Profiler::new(DitModel::flux_dev(), spec).analytic();
        let res = c.resolutions()[res_pick % c.resolutions().len()];
        let stages = StageProfile { encode, frames };
        let tflops = c.cluster().gpu.effective_tflops();
        let tail = c.model().decode_time_frames(res, tflops, frames).as_secs_f64()
            + if encode { c.model().encode_time(res, tflops).as_secs_f64() } else { 0.0 };
        let thresholds: Vec<f64> = c
            .degrees()
            .iter()
            .map(|&k| {
                f64::from(remaining) * c.step_time(res, k, 1).as_secs_f64() * ROUND_HEADROOM
                    * f64::from(frames)
                    + tail
            })
            .collect();
        let slowest = thresholds.iter().copied().fold(0.0, f64::max);
        let mut horizons = vec![0.0, fraction * slowest, slowest * 2.0, 1e9];
        for &t in &thresholds {
            horizons.extend([t, f64::from_bits(t.to_bits() - 1), f64::from_bits(t.to_bits() + 1)]);
        }
        for horizon in horizons {
            let rows = feasibility::cheapest_step_demand(&c, res, stages, remaining, horizon);
            let oracle = per_degree_step_demand(&c, res, stages, remaining, horizon);
            prop_assert_eq!(
                rows.to_bits(),
                oracle.to_bits(),
                "{} {:?} remaining {} horizon {}",
                res.label(),
                stages,
                remaining,
                horizon
            );
        }
    }
}
