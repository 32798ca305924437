//! Same-seed, same-process determinism of the scheduling stack.
//!
//! std's `HashMap` seeds its hasher *per map instance*, so two runs inside
//! one process see different hash orders — any decision path that lets a
//! hash-map iteration order reach its output diverges between back-to-back
//! same-seed runs and breaks the PR-2 digest comparisons. Batch formation
//! in `crates/core/src/batching.rs` iterated a `HashMap` until this PR; it
//! happened to be order-insensitive (groups merge independently, removals
//! are sorted, freed sets union commutatively) but was one refactor away
//! from not being. That is exactly why `tetrilint`'s `unordered-iter` rule
//! bans the *pattern* statically instead of trusting a dynamic test to
//! catch the leak: this test pins the end-to-end property, the lint keeps
//! the ways to break it out of the tree.

use tetriserve_bench::{run_perf, PerfConfig};

#[test]
fn same_seed_twice_in_one_process_is_bit_identical() {
    let config = PerfConfig::smoke();
    let a = run_perf(&config, "smoke");
    let b = run_perf(&config, "smoke");

    // Round-loop packing decisions: every (round, request, option, width,
    // steps) tuple hashed in order.
    assert_eq!(a.round_loop.len(), b.round_loop.len());
    for (ra, rb) in a.round_loop.iter().zip(&b.round_loop) {
        assert_eq!(ra.queue_depth, rb.queue_depth);
        assert_eq!(
            ra.decision_digest, rb.decision_digest,
            "decision digest diverged at queue depth {} — a decision path \
             is leaking HashMap iteration order or other ambient state",
            ra.queue_depth
        );
    }

    // End-to-end serve (scheduler + batching + engine + faults): the
    // per-request completion times must match to the microsecond.
    assert_eq!(
        a.serve.outcome_digest, b.serve.outcome_digest,
        "outcome digest diverged between two same-seed serves in one \
         process — batching/scheduling is not order-deterministic"
    );
    assert_eq!(a.serve.completed, b.serve.completed);
    assert_eq!(a.serve.sched_passes, b.serve.sched_passes);
}

/// The smoke digests as the scheduler produced them before its rounds
/// became allocation-free. Captured by printing `run_perf(&PerfConfig::
/// smoke(), "smoke")`'s `round_loop[i].decision_digest` and
/// `serve.outcome_digest` on the commit preceding that refactor; any
/// change to a scheduling decision moves one of them. A deliberate
/// decision change must re-capture them the same way and say so.
const PINNED_DECISION_DIGESTS: [(usize, u64); 2] =
    [(4, 0x697c_39d3_412f_e919), (16, 0x7e6c_bddc_f7a3_bd95)];
const PINNED_SERVE_DIGEST: u64 = 0xf7f7_6ac9_9a98_904d;

#[test]
fn smoke_digests_match_the_pinned_contract() {
    let report = run_perf(&PerfConfig::smoke(), "smoke");
    let got: Vec<(usize, u64)> = report
        .round_loop
        .iter()
        .map(|r| (r.queue_depth, r.decision_digest))
        .collect();
    assert_eq!(
        got, PINNED_DECISION_DIGESTS,
        "round-loop decision digests moved: a packing decision changed"
    );
    assert_eq!(
        report.serve.outcome_digest, PINNED_SERVE_DIGEST,
        "serve outcome digest moved: an end-to-end scheduling decision changed"
    );
}
