"""polymom benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the benchmark imports the checkout's own
``src/polymom`` and exits with status 2 when there is none. One process and
one thread send every op, each starting when the previous one returns.
Whole cycles of ops (see workloads.py) repeat until ``--seconds`` have
passed.

``--trace 0`` prints every end-to-end metric. ``--trace 1`` runs cycles
untraced for half the time, then the same cycles again under the tracer,
and prints every per-layer metric; it also checks that both passes agree
exactly on moments, retries, failures and wrong answers. The last line of
standard output is the JSON result.
"""

from __future__ import annotations

import env

env.pin_threads()  # before anything imports numpy

import argparse
import json
import math
import resource
import statistics
import sys
import time
import warnings

SETUP_REPEATS = 15
TAIL_BEYOND = 10    # ops that must lie beyond the reported tail percentile
TAIL_MAX_PCT = 90   # cap, so a faster program (more ops) keeps the same percentile

END_TO_END_UNITS = {
    "solved_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "solved_share": "ratio",
    "fail_share": "ratio",
    "wrong_share": "ratio",
    "moments_per_op": "count",
    "retries_per_op": "count",
    "tries_per_op": "count",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
# printed for reading, but not in the result line: they are 0 on some
# workloads, and solved_share and tries_per_op (1 + retries_per_op) carry them
INFORMATIONAL = ("fail_share", "wrong_share", "retries_per_op")

AGREEMENT = ("moments_per_op", "retries_per_op", "fail_share", "wrong_share")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("exact-ladder", "forward-routes", "float-noisy"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _purge_package():
    for name in list(sys.modules):
        if name == "polymom" or name.startswith("polymom.") or name in (
                "check", "shapes", "workloads"):
            del sys.modules[name]


def measure_setup(workload, seed):
    """Set up SETUP_REPEATS times: import polymom afresh, then build one
    cycle (instances and pre-generated sequences), cycle k in pass k. The
    first pass also imports numpy; the median of all passes is reported.
    Building a different cycle in each pass lets the median average over
    instance draws, whose cost is heavy-tailed on forward-routes (the
    polygon sampler rejects hulls with too few vertices)."""
    times = []
    for k in range(SETUP_REPEATS):
        _purge_package()
        start = time.perf_counter()
        import polymom  # noqa: F401
        import workloads

        workloads.build_cycle(workload, seed, k)
        times.append(time.perf_counter() - start)
    return times


def run_cycles(workload, seed, seconds=None, cycles=None, tracer=None):
    """Closed loop over whole cycles: until ``seconds`` have passed, or for
    exactly ``cycles`` cycles."""
    import check
    import workloads

    outcomes = []
    start = time.perf_counter()
    c = 0
    while (c < cycles) if cycles is not None else (time.perf_counter() - start < seconds):
        for op in workloads.build_cycle(workload, seed, c):
            call = None
            if tracer is not None:
                index = len(outcomes)
                call = (lambda op=op, index=index:
                        tracer.call_op(index, op.kind, op.run))
            outcomes.append(check.run_op(op, call))
        c += 1
    return outcomes, c


def tail_percentile(n):
    """Highest whole percentile with TAIL_BEYOND ops beyond it, capped."""
    return max(0, min(TAIL_MAX_PCT, math.floor(100 * (1 - TAIL_BEYOND / n))))


def summarize(outcomes):
    n = len(outcomes)
    statuses = [o.status for o in outcomes]
    solved = statuses.count("ok")
    wrong = statuses.count("wrong")
    raised = statuses.count("failed") + statuses.count("crashed")
    times = sorted(o.seconds for o in outcomes)
    pct = tail_percentile(n)
    tail_index = max(0, math.ceil(pct / 100 * n) - 1)
    returned = [o.retries for o in outcomes if o.retries is not None]
    retries = sum(returned) / len(returned) if returned else 0.0
    return {
        "solved_per_s": solved / sum(times),
        "op_p50_ms": 1000 * statistics.median(times),
        "op_tail_ms": 1000 * times[tail_index],
        "solved_share": solved / n,
        "fail_share": raised / n,
        "wrong_share": wrong / n,
        "moments_per_op": sum(o.moments for o in outcomes) / n,
        "retries_per_op": retries,
        "tries_per_op": 1 + retries,
    }, {"ops": n, "tail_pct": pct, "beyond": n - 1 - tail_index,
        "solved": solved, "wrong": wrong, "raised": raised}


def print_outcome_breakdown(outcomes):
    by_kind = {}
    for o in outcomes:
        key = (o.kind, o.status, o.error or "")
        by_kind[key] = by_kind.get(key, 0) + 1
    for (kind, status, error), count in sorted(by_kind.items()):
        print(f"ops {kind:12s} {status:8s} {error:22s} {count}")
    bad = sorted({o.label for o in outcomes if o.status != "ok"})
    if bad:
        print("not solved: " + ", ".join(bad))


def main(argv=None):
    args = parse_args(argv)
    if not env.use_checkout_source():
        print(f"error: no polymom package under {env.SRC}", file=sys.stderr)
        return 2
    warnings.simplefilter("ignore")
    setup_times = measure_setup(args.workload, args.seed)

    import selftest

    problems = selftest.run()
    if problems:
        for p in problems:
            print(f"checker self-test failed: {p}", file=sys.stderr)
        return 1

    print("env " + json.dumps(env.describe(), sort_keys=True))
    print(f"run workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    if args.trace:
        result = traced_run(args)
    else:
        result = untraced_run(args, setup_times)
    print(json.dumps(result))
    return 0


def untraced_run(args, setup_times):
    import check

    outcomes, cycles = run_cycles(args.workload, args.seed, seconds=args.seconds)
    metrics, info = summarize(outcomes)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics["setup_s"] = statistics.median(setup_times)
    print_outcome_breakdown(outcomes)
    print(f"cycles {cycles}, ops {info['ops']}: solved {info['solved']}, "
          f"wrong {info['wrong']}, raised {info['raised']}")
    print(f"op_tail_ms is p{info['tail_pct']} of {info['ops']} ops "
          f"({info['beyond']} beyond it)")
    print("setup passes (s): " + ", ".join(f"{t:.4f}" for t in setup_times))
    for name, unit in END_TO_END_UNITS.items():
        print(f"metric {name} = {metrics[name]:.6g} {unit}")
    report = {k: v for k, v in metrics.items() if k not in INFORMATIONAL}
    return {
        "correct": check.run_is_correct(outcomes),
        "attempted": info["ops"],
        "failed": info["wrong"] + info["raised"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in report.items()},
    }


def traced_run(args):
    import check
    import tracing

    plain, cycles = run_cycles(args.workload, args.seed, seconds=args.seconds / 2)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced, _ = run_cycles(args.workload, args.seed, cycles=cycles, tracer=tracer)
    finally:
        tracer.uninstall()

    plain_metrics, _ = summarize(plain)
    traced_metrics, info = summarize(traced)
    agree = all(plain_metrics[k] == traced_metrics[k] for k in AGREEMENT)
    for k in AGREEMENT:
        print(f"agreement {k}: untraced {plain_metrics[k]!r} traced {traced_metrics[k]!r}")
    if not agree:
        print("error: the traced pass changed what the ops did", file=sys.stderr)

    kept = sum(o.directions_kept for o in traced)
    # ops without an oracle: handed their sequences, or the forward routes
    served = sum(o.moments for o in traced if o.kind not in ("sequences", "forward"))
    layer = tracer.metrics(len(traced), kept, served)
    layer["trace.overhead"] = (sum(o.seconds for o in traced)
                               / sum(o.seconds for o in plain))
    units = tracing.metric_units()
    print_outcome_breakdown(traced)
    print(f"cycles {cycles} per pass, ops {info['ops']} per pass")
    for name, unit in units.items():
        print(f"layer {name} = {layer[name]:.6g} {unit}")
    for exc, count in sorted(tracer.other_failures().items()):
        print(f"layer prony.solve.fail.{exc} = {count / len(traced):.6g} count/op (unlisted)")
    out = env.ROOT / "perfbench" / "out" / f"spans-{args.workload}-seed{args.seed}.tsv"
    tracer.write_spans(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(env.ROOT)}"
          + (f", {tracer.dropped} beyond the cap not kept" if tracer.dropped else ""))
    return {
        "correct": agree and check.run_is_correct(plain) and check.run_is_correct(traced),
        "attempted": info["ops"],
        "failed": info["wrong"] + info["raised"],
        "metrics": {name: {"value": layer[name], "unit": unit}
                    for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
