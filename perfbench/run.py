#!/usr/bin/env python3
"""Fleet-serving benchmark: SLO and simulator-speed metrics per workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <near-capacity|overload|tenants>
                             [--seed N] [--seconds S] [--trace 0|1]

Builds the `perfbench` binary (into $CARGO_TARGET_DIR, default
`.bench_build`), then starts a fresh process per measured simulation until
`--seconds` have passed, and reports medians. With `--trace 0` it prints
the end-to-end metrics; with `--trace 1` it alternates untraced and traced
processes, audits one traced run, and prints the per-layer metrics. Every
metric is printed by name with its unit; the last line of standard output
is one JSON object with the keys `correct`, `attempted`, `failed` and
`metrics`. See NOTES.md for the workloads and the measured noise.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("near-capacity", "overload", "tenants")
DEFAULT_SEED = 1
DEFAULT_SECONDS = 35
# Fewest fresh processes a run measures, however short `--seconds` is.
MIN_UNTRACED = 3
MIN_PAIRS = 2
CHILD_TIMEOUT_S = 150
# Seconds the host-speed probe (src/probe.rs) takes on the reference host,
# a 2-vCPU x86-64 VM in a quiet period. Host times are reported scaled to
# that speed: measured seconds x PROBE_REFERENCE_S / probe seconds.
PROBE_REFERENCE_S = 0.055

# Fields every process of one seed must reproduce exactly: the simulated
# metrics, the fleet counters and the digests.
DETERMINISTIC = (
    "sar", "goodput_rps", "latency_p50_s", "latency_p99_s", "latency_samples",
    "worst_tenant_sar", "unserved_frac", "encode_util", "decode_util",
    "decode_slo_share", "events", "feas_calls", "feas_grow_events",
    "admission_shed", "fleet_shed", "peak_backlog", "outcomes", "trace_events",
    "lost_requests", "routing_digest", "outcome_digest",
)
# Span counts every traced process of one seed must reproduce exactly.
DETERMINISTIC_SPANS = ("dispatching_calls", "plans", "router_sheds")
LAYERS = ("arrivals", "router", "scheduler", "metrics")


def median(runs, key):
    return statistics.median(key(r) for r in runs)


def first(runs, field):
    return runs[0][field]


def reference_scale(r):
    """Factor turning one process's host seconds into reference seconds."""
    return PROBE_REFERENCE_S / r["probe_s"]


def ref_sim_req_per_s(r):
    return r["sim_req_per_s"] / reference_scale(r)


def ref_setup_s(r):
    return r["setup_s"] * reference_scale(r)


def end_to_end(untraced):
    """(name, unit, value) of every end-to-end metric. Host times are in
    reference seconds (see PROBE_REFERENCE_S)."""
    return [
        ("sar", "fraction", first(untraced, "sar")),
        ("goodput_rps", "req/s", first(untraced, "goodput_rps")),
        ("latency_p50_s", "s", first(untraced, "latency_p50_s")),
        ("latency_p99_s", "s", first(untraced, "latency_p99_s")),
        ("worst_tenant_sar", "fraction", first(untraced, "worst_tenant_sar")),
        ("unserved_frac", "fraction", first(untraced, "unserved_frac")),
        ("sim_req_per_s", "req/s", median(untraced, ref_sim_req_per_s)),
        ("setup_s", "s", median(untraced, ref_setup_s)),
        ("peak_rss_mb", "MiB", median(untraced, lambda r: r["peak_rss_mb"])),
    ]


def server_self(r):
    return r["server_self_s"]


def layer_self(name):
    return lambda r: r["spans"][name]["self_s"]


def share(self_time):
    return lambda r: self_time(r) / r["run_s"]


def per_layer(untraced, traced):
    """(name, unit, value) of every per-layer metric: medians over the
    traced processes, counts from the first (they repeat exactly)."""
    spans = traced[0]["spans"]
    calls = {name: spans[name]["calls"] for name in LAYERS}
    out = []
    for name in LAYERS:
        if name != "metrics":
            out.append((f"{name}.calls", "count", calls[name]))
        out.append((f"{name}.self_s", "s", median(traced, layer_self(name))))
        out.append((f"{name}.self_share", "fraction",
                    median(traced, share(layer_self(name)))))
    out += [
        ("router.shed_frac", "fraction",
         spans["router_sheds"] / max(calls["router"], 1)),
        ("scheduler.call_us_p50", "us",
         median(traced, lambda r: r["spans"]["schedule_call_p50_s"] * 1e6)),
        ("scheduler.call_us_p99", "us",
         median(traced, lambda r: r["spans"]["schedule_call_p99_s"] * 1e6)),
        ("scheduler.dispatch_frac", "fraction",
         spans["dispatching_calls"] / max(calls["scheduler"], 1)),
        ("scheduler.plans", "count", spans["plans"]),
        ("server.self_s", "s", median(traced, server_self)),
        ("server.self_share", "fraction", median(traced, share(server_self))),
        ("server.events", "count", first(traced, "events")),
        ("server.feas_calls", "count", first(traced, "feas_calls")),
        ("server.admission_shed", "count", first(traced, "admission_shed")),
        ("server.feas_grow_events", "count", first(traced, "feas_grow_events")),
        ("server.peak_backlog", "count", first(traced, "peak_backlog")),
        ("metrics.outcomes", "count", first(traced, "outcomes")),
        ("metrics.trace_events", "count", first(traced, "trace_events")),
        ("stages.encode_util", "fraction", first(traced, "encode_util")),
        ("stages.decode_util", "fraction", first(traced, "decode_util")),
        ("stages.decode_slo_share", "fraction", first(traced, "decode_slo_share")),
        ("trace_overhead_s", "s",
         median(traced, lambda r: r["run_s"]) - median(untraced, lambda r: r["run_s"])),
        ("host.runq_wait_s", "s", median(untraced, lambda r: r["runq_wait_s"])),
        ("host.probe_s", "s", median(untraced, lambda r: r["probe_s"])),
        ("host.raw_sim_req_per_s", "req/s",
         median(untraced, lambda r: r["sim_req_per_s"])),
        ("host.raw_setup_s", "s", median(untraced, lambda r: r["setup_s"])),
    ]
    return out


def check(untraced, traced):
    """Failed correctness checks (empty when every output is correct)."""
    errors = []
    runs = untraced + traced
    for i, r in enumerate(runs):
        errors += [f"process {i}: {e}" for e in r["errors"]]
    for field in DETERMINISTIC:
        values = {json.dumps(r[field]) for r in runs}
        if len(values) > 1:
            errors.append(f"{field} differs between processes of one seed: "
                          f"{sorted(values)}")
    for field in DETERMINISTIC_SPANS:
        if len({r["spans"][field] for r in traced}) > 1:
            errors.append(f"traced {field} differs between processes")
    for name in LAYERS[:3]:
        if len({r["spans"][name]["calls"] for r in traced}) > 1:
            errors.append(f"traced {name} calls differ between processes")
    if traced:
        audited = [r for r in traced if r["audit_violations"] is not None]
        if not audited:
            errors.append("no traced process was audited")
        for r in traced:
            if r["server_self_s"] < 0:
                errors.append("wrapped layers exceed the run's wall time")
    return errors


def build():
    """Builds the benchmark binary and returns its path."""
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["CARGO_NET_OFFLINE"] = "true"
    manifest = os.path.join(HERE, "Cargo.toml")
    subprocess.run(
        ["cargo", "build", "--release", "--quiet", "--manifest-path", manifest],
        env=env, stdout=sys.stderr, check=True, timeout=900,
    )
    return os.path.join(target, "release", "perfbench")


def simulate(binary, workload, seed, traced=False, audit=False):
    """One simulation in a fresh process; its parsed JSON line."""
    cmd = [binary, "--workload", workload, "--seed", str(seed)]
    cmd += ["--traced"] if traced else []
    cmd += ["--audit"] if audit else []
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode} "
                           f"without a result: {proc.stderr.strip()}")
    result = json.loads(lines[-1])
    if proc.returncode != 0 and not result["errors"]:
        result["errors"] = [f"exited {proc.returncode}: {proc.stderr.strip()}"]
    return result


def measure(binary, workload, seed, seconds, trace):
    """Fresh processes until `seconds` have passed: (untraced, traced)."""
    untraced, traced = [], []
    deadline = time.monotonic() + seconds
    while True:
        untraced.append(simulate(binary, workload, seed))
        if trace:
            traced.append(simulate(binary, workload, seed, traced=True,
                                   audit=not traced))
        enough = len(untraced) >= (MIN_PAIRS if trace else MIN_UNTRACED)
        if enough and time.monotonic() >= deadline:
            return untraced, traced


def fmt(value):
    return f"{value:.6g}" if isinstance(value, float) else str(value)


def report(workload, seed, untraced, traced, metrics):
    """Human-readable lines, before the final JSON line."""
    r = untraced[0]
    print(f"workload {workload} seed {seed}: {r['requests']} requests per run, "
          f"serial driver, {len(untraced)} untraced + {len(traced)} traced "
          f"fresh processes")
    print("open loop: arrivals follow the seeded schedule; a simulator's "
          "generator is never late in simulated time, so no lateness is reported")
    samples = f"(simulated; {r['latency_samples']} completed samples)"
    notes = {
        "latency_p50_s": samples,
        "latency_p99_s": samples,
        "sim_req_per_s": "(reference host; median of {} runs; raw {} req/s; "
                         "run-queue wait median {} s; host probe median {} s)".format(
                             len(untraced),
                             fmt(median(untraced, lambda u: u["sim_req_per_s"])),
                             fmt(median(untraced, lambda u: u["runq_wait_s"])),
                             fmt(median(untraced, lambda u: u["probe_s"]))),
        "setup_s": "(reference host; raw {} s)".format(
            fmt(median(untraced, lambda u: u["setup_s"]))),
    }
    for name, unit, value in metrics:
        print(f"  {name:26s} {fmt(value):>14s} {unit:8s} {notes.get(name, '')}")
    for i, u in enumerate(untraced):
        print(f"  run {i:2d}: raw sim_req_per_s {fmt(u['sim_req_per_s'])} "
              f"raw setup_s {fmt(u['setup_s'])} run-queue wait "
              f"{fmt(u['runq_wait_s'])} s host probe {fmt(u['probe_s'])} s")
    if traced:
        audited = next(t for t in traced if t["audit_violations"] is not None)
        print(f"  audit: {audited['audit_violations']} violation(s) over every "
              f"cluster; traced and untraced digests "
              f"{r['routing_digest']} / {r['outcome_digest']}")


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        binary = build()
        untraced, traced = measure(binary, args.workload, args.seed,
                                   args.seconds, args.trace)
    except (subprocess.SubprocessError, RuntimeError, OSError, ValueError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    errors = check(untraced, traced)
    metrics = per_layer(untraced, traced) if args.trace else end_to_end(untraced)
    report(args.workload, args.seed, untraced, traced, metrics)
    for e in errors:
        print(f"perfbench: check failed: {e}", file=sys.stderr)
    runs = untraced + traced
    print(json.dumps({
        "correct": not errors,
        "attempted": sum(r["requests"] for r in runs),
        "failed": sum(r["lost_requests"] for r in runs),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, unit, value in metrics},
    }))
    return 0 if not errors else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
