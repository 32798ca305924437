//! Deadline-aware GPU allocation (§4.2.1).
//!
//! For each request, find the step-level allocation plan `{(s^m, A^m)}`
//! that minimises total GPU-hours `Σ s^m · A^m · T(A^m)` subject to the
//! deadline `Σ s^m · T(A^m) ≤ slack`.
//!
//! Because the per-step GPU-hour rate `g(k) = k·T(k)` is increasing in `k`
//! while the per-step latency `T(k)` is decreasing (Insight 2), this is a
//! tiny linear program whose optimum mixes **at most two degrees**: run as
//! many steps as possible at a cheap degree, and the rest at a faster one
//! that pulls the completion time under the deadline — exactly the
//! behaviour Figure 6 of the paper illustrates ("GPU allocations with two
//! parallelism degrees that just meet their deadlines"). With at most four
//! candidate degrees we simply enumerate all single degrees and ordered
//! pairs and keep the cheapest feasible plan, which is exact.

use tetriserve_costmodel::{CostTable, Resolution};
use tetriserve_simulator::time::SimDuration;

/// One segment of an allocation plan: `steps` steps at `degree` GPUs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocSegment {
    /// Number of steps to run at this degree (`s^m`).
    pub steps: u32,
    /// Sequence-parallel degree (`A^m`).
    pub degree: usize,
}

/// The at most two segments of a plan, held inline: a plan is a plain
/// `Copy` value and building one never touches the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Segments {
    One(AllocSegment),
    Two([AllocSegment; 2]),
}

/// A request's deadline-aware allocation plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AllocationPlan {
    segments: Segments,
    /// Whether the plan meets the deadline. When `false` the request is
    /// *definitely late* — even maximal parallelism cannot save it — and
    /// the segments fall back to best-effort at the fastest degree.
    pub feasible: bool,
}

impl AllocationPlan {
    /// Plan segments ordered cheap-degree-first (the execution order in
    /// Figure 6: start narrow, scale up toward the deadline).
    pub fn segments(&self) -> &[AllocSegment] {
        match &self.segments {
            Segments::One(seg) => std::slice::from_ref(seg),
            Segments::Two(segs) => segs,
        }
    }

    /// Total steps across segments.
    pub fn total_steps(&self) -> u32 {
        self.segments().iter().map(|s| s.steps).sum()
    }

    /// Estimated runtime of the plan.
    pub fn runtime(&self, res: Resolution, costs: &CostTable) -> SimDuration {
        self.segments()
            .iter()
            .map(|s| costs.step_time(res, s.degree, 1) * u64::from(s.steps))
            .sum()
    }

    /// Estimated GPU-seconds of the plan.
    pub fn gpu_seconds(&self, res: Resolution, costs: &CostTable) -> f64 {
        self.segments()
            .iter()
            .map(|s| costs.gpu_seconds(res, s.degree) * f64::from(s.steps))
            .sum()
    }
}

/// Degrees worth considering, ascending: those that strictly improve
/// latency over every smaller degree (a degree that is both slower *and*
/// wider is dominated and never useful).
pub fn useful_degrees(
    res: Resolution,
    costs: &CostTable,
) -> impl Iterator<Item = usize> + Clone + '_ {
    useful_steps(res, costs).map(|(k, _)| k)
}

/// [`useful_degrees`] with each degree's per-step time, which therefore
/// strictly decreases along the sequence.
fn useful_steps(
    res: Resolution,
    costs: &CostTable,
) -> impl Iterator<Item = (usize, SimDuration)> + Clone + '_ {
    costs
        .degrees()
        .iter()
        .scan(SimDuration::MAX, move |best, &k| {
            let t = costs.step_time(res, k, 1);
            Some((t < *best).then(|| {
                *best = t;
                (k, t)
            }))
        })
        .flatten()
}

/// The fastest useful degree no wider than `max_degree`, with its per-step
/// time — the degree every infeasible plan falls back to. `None` when the
/// cap excludes every profiled degree.
pub(crate) fn fastest_degree_within(
    res: Resolution,
    costs: &CostTable,
    max_degree: usize,
) -> Option<(usize, SimDuration)> {
    let fastest = costs.fastest_degree(res);
    if fastest <= max_degree {
        // The uncapped optimum fits under the cap (every healthy node).
        // Both it and the useful sequence take the narrowest of tied
        // degrees, so they agree.
        return Some((fastest, costs.t_min(res)));
    }
    // Useful degrees are prefix minima of T(k), so the last one under the
    // cap is the fastest of all degrees under it.
    useful_steps(res, costs)
        .filter(|&(k, _)| k <= max_degree)
        .last()
}

/// A step time inflated by the round headroom, in whole microseconds.
fn inflate(t: SimDuration, headroom: f64) -> u64 {
    (t.as_micros() as f64 * headroom).ceil() as u64
}

/// Whether [`min_gpu_hour_plan_capped`] with the same arguments returns a
/// feasible plan, decided from the fastest degree alone.
///
/// Every two-degree mix the search admits needs all-fast to fit first,
/// and the fastest degree's single-degree plan is admitted whenever it
/// fits; inflation is monotone, so the plan is feasible if and only if
/// `steps × inflate(t_fast) ≤ slack`. This skips the search for requests
/// whose option set cannot depend on the plan's segments.
///
/// # Panics
///
/// Panics under the same conditions as [`min_gpu_hour_plan_capped`].
pub(crate) fn plan_is_feasible(
    res: Resolution,
    remaining_steps: u32,
    slack: SimDuration,
    costs: &CostTable,
    headroom: f64,
    max_degree: usize,
) -> bool {
    assert!(remaining_steps > 0, "allocation needs at least one step");
    assert!(headroom >= 1.0, "headroom must be ≥ 1.0, got {headroom}");
    let Some((_, t_fast)) = fastest_degree_within(res, costs, max_degree) else {
        panic!("degree cap {max_degree} excludes every profiled degree");
    };
    u64::from(remaining_steps) * inflate(t_fast, headroom) <= slack.as_micros()
}

/// Computes the minimal-GPU-hour plan for `remaining_steps` steps of `res`
/// that completes within `slack`.
///
/// # Examples
///
/// ```
/// use tetriserve_core::allocation::min_gpu_hour_plan;
/// use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler, Resolution};
/// use tetriserve_simulator::time::SimDuration;
///
/// let costs = Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic();
/// // A relaxed 1024² request runs on one GPU (minimal GPU-hours)…
/// let relaxed = min_gpu_hour_plan(Resolution::R1024, 50, SimDuration::from_secs(60), &costs);
/// assert_eq!(relaxed.segments()[0].degree, 1);
/// // …while a 5-second 2048² deadline forces wide execution.
/// let tight = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(5), &costs);
/// assert!(tight.feasible);
/// assert_eq!(tight.segments().last().unwrap().degree, 8);
/// ```
///
/// # Panics
///
/// Panics if `remaining_steps` is zero.
pub fn min_gpu_hour_plan(
    res: Resolution,
    remaining_steps: u32,
    slack: SimDuration,
    costs: &CostTable,
) -> AllocationPlan {
    min_gpu_hour_plan_with_headroom(res, remaining_steps, slack, costs, 1.0)
}

/// Like [`min_gpu_hour_plan`], but inflates step times by `headroom` in
/// every feasibility check.
///
/// Round-based execution loses a small fraction of each round to the bubble
/// between the last completed step and the round boundary; the scheduler
/// passes its round headroom here so plans keep exactly the margin that
/// quantisation will consume. Plan *costs* still use true step times.
///
/// # Panics
///
/// Panics if `remaining_steps` is zero or `headroom < 1.0`.
pub fn min_gpu_hour_plan_with_headroom(
    res: Resolution,
    remaining_steps: u32,
    slack: SimDuration,
    costs: &CostTable,
    headroom: f64,
) -> AllocationPlan {
    min_gpu_hour_plan_capped(res, remaining_steps, slack, costs, headroom, usize::MAX)
}

/// Like [`min_gpu_hour_plan_with_headroom`], but considers no degree wider
/// than `max_degree` — the scheduler passes the healthy GPU count here so
/// plans never rely on parallelism that hard-faulted GPUs cannot provide.
/// A plan that was feasible at full width may become infeasible under the
/// cap; it then falls back to best effort at the widest healthy degree.
///
/// The search allocates nothing: degrees are walked lazily and the running
/// best is an inline plan on the stack.
///
/// # Panics
///
/// Panics if `remaining_steps` is zero, `headroom < 1.0`, or `max_degree`
/// is below the narrowest profiled degree.
pub fn min_gpu_hour_plan_capped(
    res: Resolution,
    remaining_steps: u32,
    slack: SimDuration,
    costs: &CostTable,
    headroom: f64,
    max_degree: usize,
) -> AllocationPlan {
    assert!(remaining_steps > 0, "allocation needs at least one step");
    assert!(headroom >= 1.0, "headroom must be ≥ 1.0, got {headroom}");
    let degrees = useful_steps(res, costs)
        .filter(move |&(k, _)| k <= max_degree)
        .map(move |(k, t)| (k, inflate(t, headroom)));
    let steps = u64::from(remaining_steps);
    let slack_us = slack.as_micros();

    let mut best: Option<(f64, Segments)> = None;
    let mut consider = |cost: f64, segs: Segments| {
        if best.is_none_or(|(c, _)| cost < c) {
            best = Some((cost, segs));
        }
    };

    // Single-degree plans. The last degree seen is the fastest.
    let mut fastest = None;
    for (k, t) in degrees.clone() {
        fastest = Some(k);
        if steps * t <= slack_us {
            consider(
                costs.gpu_seconds(res, k) * steps as f64,
                Segments::One(AllocSegment {
                    steps: remaining_steps,
                    degree: k,
                }),
            );
        }
    }
    let Some(fastest) = fastest else {
        panic!("degree cap {max_degree} excludes every profiled degree");
    };

    // Two-degree mixes: s_lo steps at the cheaper degree, the rest at the
    // faster one. For each pair, the GPU-hour-minimal split maximises the
    // cheap-segment length subject to the deadline. Cloning the outer
    // iterator resumes the inner walk just past `k_lo`.
    let mut lows = degrees;
    while let Some((k_lo, t_lo)) = lows.next() {
        for (k_hi, t_hi) in lows.clone() {
            debug_assert!(t_lo > t_hi, "degrees are filtered to strictly improve");
            if steps * t_hi > slack_us {
                continue; // even all-fast misses
            }
            // s_lo·t_lo + (S−s_lo)·t_hi ≤ slack  ⇒  s_lo ≤ (slack − S·t_hi)/(t_lo − t_hi)
            let s_lo = ((slack_us - steps * t_hi) / (t_lo - t_hi)).min(steps);
            let s_hi = steps - s_lo;
            if s_lo == 0 || s_hi == 0 {
                continue; // degenerates to a single-degree plan
            }
            let cost = costs.gpu_seconds(res, k_lo) * s_lo as f64
                + costs.gpu_seconds(res, k_hi) * s_hi as f64;
            consider(
                cost,
                Segments::Two([
                    AllocSegment {
                        steps: s_lo as u32,
                        degree: k_lo,
                    },
                    AllocSegment {
                        steps: s_hi as u32,
                        degree: k_hi,
                    },
                ]),
            );
        }
    }

    match best {
        Some((_, segments)) => AllocationPlan {
            segments,
            feasible: true,
        },
        None => AllocationPlan {
            // Definitely late: best effort at the fastest degree.
            segments: Segments::One(AllocSegment {
                steps: remaining_steps,
                degree: fastest,
            }),
            feasible: false,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetriserve_costmodel::{ClusterSpec, DitModel, Profiler};

    fn costs() -> CostTable {
        Profiler::new(DitModel::flux_dev(), ClusterSpec::h100x8()).analytic()
    }

    #[test]
    fn useful_degrees_are_all_degrees_on_h100() {
        // With the calibrated model, T(k) strictly decreases for every
        // production resolution, so all four degrees are useful.
        let c = costs();
        for res in Resolution::PRODUCTION {
            assert_eq!(
                useful_degrees(res, &c).collect::<Vec<_>>(),
                vec![1, 2, 4, 8],
                "{res}"
            );
        }
    }

    #[test]
    fn loose_deadline_uses_one_gpu() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R1024, 50, SimDuration::from_secs(60), &c);
        assert!(plan.feasible);
        assert_eq!(
            plan.segments(),
            [AllocSegment {
                steps: 50,
                degree: 1
            }]
        );
    }

    #[test]
    fn tight_deadline_forces_max_parallelism() {
        let c = costs();
        // 2048² in 5 s: nearly every step must run at SP=8 (a couple may
        // slip to SP=4 to shave GPU-hours — Figure 6's mixed-degree shape).
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(5), &c);
        assert!(plan.feasible);
        assert!(plan.runtime(Resolution::R2048, &c) <= SimDuration::from_secs(5));
        let sp8_steps: u32 = plan
            .segments()
            .iter()
            .filter(|s| s.degree == 8)
            .map(|s| s.steps)
            .sum();
        assert!(sp8_steps >= 40, "plan {plan:?}");
        assert_eq!(plan.segments().last().unwrap().degree, 8);
    }

    #[test]
    fn intermediate_deadline_mixes_two_degrees() {
        let c = costs();
        // Pick a slack between the all-SP4 and all-SP8 runtimes of 2048².
        let t4 = c.step_time(Resolution::R2048, 4, 1) * 50;
        let t8 = c.step_time(Resolution::R2048, 8, 1) * 50;
        let mid = SimDuration::from_micros((t4.as_micros() + t8.as_micros()) / 2);
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, mid, &c);
        assert!(plan.feasible);
        assert_eq!(plan.segments().len(), 2, "plan {plan:?}");
        let degs: Vec<usize> = plan.segments().iter().map(|s| s.degree).collect();
        assert_eq!(degs, vec![4, 8]);
        assert_eq!(plan.total_steps(), 50);
        // Meets the deadline with the mixed plan…
        assert!(plan.runtime(Resolution::R2048, &c) <= mid);
        // …and costs less GPU time than running everything at SP8.
        let all_fast = 50.0 * c.gpu_seconds(Resolution::R2048, 8);
        assert!(plan.gpu_seconds(Resolution::R2048, &c) < all_fast);
    }

    #[test]
    fn mixed_plan_is_optimal_among_all_splits() {
        // Brute-force every (s at k_lo, rest at k_hi) split over every pair
        // and confirm the planner's cost matches the minimum.
        let c = costs();
        let res = Resolution::R1024;
        let steps = 30u32;
        let slack = SimDuration::from_secs_f64(2.0);
        let plan = min_gpu_hour_plan(res, steps, slack, &c);
        assert!(plan.feasible);
        let degrees: Vec<usize> = useful_degrees(res, &c).collect();
        let mut brute_best = f64::INFINITY;
        for &a in &degrees {
            for &b in &degrees {
                for s_a in 0..=steps {
                    let s_b = steps - s_a;
                    let t = c.step_time(res, a, 1) * u64::from(s_a)
                        + c.step_time(res, b, 1) * u64::from(s_b);
                    if t <= slack {
                        let cost = c.gpu_seconds(res, a) * f64::from(s_a)
                            + c.gpu_seconds(res, b) * f64::from(s_b);
                        brute_best = brute_best.min(cost);
                    }
                }
            }
        }
        let got = plan.gpu_seconds(res, &c);
        assert!(
            (got - brute_best).abs() / brute_best < 1e-9,
            "planner {got}, brute force {brute_best}"
        );
    }

    #[test]
    fn impossible_deadline_reports_infeasible_with_fastest_fallback() {
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_millis(100), &c);
        assert!(!plan.feasible);
        assert_eq!(
            plan.segments()[0].degree,
            8,
            "fallback runs at T_min degree"
        );
        assert_eq!(plan.total_steps(), 50);
    }

    #[test]
    fn small_resolution_never_over_parallelises() {
        // Figure 6: R1 (256²) is fixed at SP=1 because its deadline is
        // satisfiable there and higher degrees waste GPU-hours.
        let c = costs();
        let plan = min_gpu_hour_plan(Resolution::R256, 50, SimDuration::from_millis(1500), &c);
        assert!(plan.feasible);
        assert_eq!(plan.segments().len(), 1);
        assert_eq!(plan.segments()[0].degree, 1);
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_steps_rejected() {
        min_gpu_hour_plan(Resolution::R256, 0, SimDuration::from_secs(1), &costs());
    }

    #[test]
    fn degree_cap_excludes_unhealthy_widths() {
        let c = costs();
        // 2048² in 5 s needs SP=8 — but with only 4 healthy GPUs the plan
        // must cap at SP=4 and report infeasibility honestly.
        let plan =
            min_gpu_hour_plan_capped(Resolution::R2048, 50, SimDuration::from_secs(5), &c, 1.0, 4);
        assert!(plan.segments().iter().all(|s| s.degree <= 4), "{plan:?}");
        assert!(!plan.feasible, "SP=4 cannot make a 5 s 2048² deadline");
        // A relaxed deadline stays feasible under the same cap.
        let plan = min_gpu_hour_plan_capped(
            Resolution::R2048,
            50,
            SimDuration::from_secs(60),
            &c,
            1.0,
            4,
        );
        assert!(plan.feasible);
        assert!(plan.segments().iter().all(|s| s.degree <= 4));
        // An uncapped call is unchanged.
        let full = min_gpu_hour_plan(Resolution::R2048, 50, SimDuration::from_secs(5), &c);
        assert!(full.feasible);
    }

    #[test]
    #[should_panic(expected = "excludes every profiled degree")]
    fn cap_below_narrowest_degree_rejected() {
        min_gpu_hour_plan_capped(
            Resolution::R256,
            10,
            SimDuration::from_secs(1),
            &costs(),
            1.0,
            0,
        );
    }
}
