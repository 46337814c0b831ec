#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the heegner pipeline.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py                  # all three workloads, one after another

Workloads (see perfbench/README.md for why each exists):
  sweep   build_PD for both discriminants of every admissible (p, l), l < 300
  levels  one search per level, the worked examples, default settings
  points  every valid integer h, |h| <= 40, at every level: one prime each

One client, one process, no threads: each operation starts when the previous
one has returned.  A round is the workload's whole list of operations in the
order the seed gives; rounds repeat while the next one is expected to end
within --seconds, and there is always at least one.  Outputs are checked
after the timed loop by perfbench/checks.py.  With --trace 1 the calls
between library modules are recorded (perfbench/spans.py) and the per-layer
metrics are printed instead of the end-to-end ones.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

import clock

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("sweep", "levels", "points")
SETUP_SAMPLES = 5  # set-ups timed per run: this process plus fresh interpreters

SWEEP_ELL_BOUND = 300
LEVEL_CALLS = ((3, Fraction(-40), 1), (5, Fraction(1), 1), (7, Fraction(2), 1),
               (11, Fraction(21, 2), 3), (13, Fraction(3), 1), (19, Fraction(2), 1))
SMALL_LEVELS = (5, 11, 13, 19)
# A build multiplies h(D)/2 linear factors at a precision that grows like
# sqrt|D|; (h(D)/2)^2 sqrt|D| up to this bound marks the cheapest 111 builds.
CHEAP_COST = 10_000
REPEATS = {"sweep": 5, "levels": 25, "points": 3}  # occurrences of a cheap operation a round
POINT_HEIGHT = 40
POINT_RHO_ITERATIONS = 1 << 16
POINT_ELL_BOUND = 300
POINT_VERIFY_BOUND = 10**5
SPAN_OF = {"build_PD": "classpoly.build_PD", "search": "sssearch.search"}
HARRELL_DAVIS_MIN = 40  # fewer operations than this have no tail to estimate


def load_library():
    """Import heegner from the src/ next to this directory, never from elsewhere."""
    if not os.path.isdir(os.path.join(SRC, "heegner")):
        sys.exit(f"perfbench: {SRC}/heegner not found; run from a repository checkout")
    sys.path.insert(0, SRC)
    import heegner
    from heegner import classpoly, sssearch, ssverify

    if not os.path.abspath(heegner.__file__).startswith(SRC):
        sys.exit(f"perfbench: imported {heegner.__file__}, not the checkout's library")
    return heegner, {"classpoly": classpoly, "sssearch": sssearch, "ssverify": ssverify}


def in_theorem(lib, p, h):
    """The search's hypotheses: h not supersingular mod p, and for p = 3 mod 4
    h interior to j_p(S).  The program refuses other points."""
    if h.denominator % p:
        residue = h.numerator * pow(h.denominator, -1, p) % p
        if residue in lib.supersingular_jp_residues(p):
            return False
    if p % 4 == 3:
        lo, hi = lib.jp_arc_interval(p)
        margin = lib.sssearch.INTERIOR_MARGIN
        return lo + margin < h < hi - margin
    return True


def make_ops(workload, seed, repeat=True):
    """Import the library and generate the workload's operations.

    Each operation is (label, callable name, args, kwargs); the seed fixes
    their order.  Cheap operations appear REPEATS times when ``repeat`` is
    set, spread through the round, so that the median of their times is
    steady: single timings of a few milliseconds here vary by 2x, and by 10 %
    even at reference speed.  For the searches, the hypotheses checks fill
    the library's per-level caches and one factorization fills its table of
    trial-division primes; otherwise whichever search came first would pay
    for them.
    """
    lib, modules = load_library()
    ops = []
    if workload == "sweep":
        for p in (3, 5, 7, 11, 13, 19):
            for ell in range(3, SWEEP_ELL_BOUND):
                if lib.is_prime(ell) and ell != p and lib.ell_admissible(p, ell):
                    for shape in ("-pl", "-4pl"):
                        disc = lib.Discriminant(p, ell, shape)
                        degree = lib.class_number(disc.D) // 2
                        cheap = degree * degree * math.sqrt(-disc.D) <= CHEAP_COST
                        op = ((p, ell, disc.D), "build_PD", (disc,), {})
                        ops.extend([op] * (REPEATS[workload] if cheap and repeat else 1))
    elif workload == "levels":
        lib.factorize(2)
        for p, h, count in LEVEL_CALLS:
            if not in_theorem(lib, p, h):
                raise ValueError(f"worked example ({p}, {h}) is outside the theorem")
            op = ((p, h, count), "search", (p, h), {"count": count})
            ops.extend([op] * (REPEATS[workload] if p in SMALL_LEVELS and repeat else 1))
    elif workload == "points":
        lib.factorize(2)
        options = {"count": 1, "ell_bound": POINT_ELL_BOUND,
                   "budget": lib.FactorBudget(rho_iterations=POINT_RHO_ITERATIONS),
                   "effort_bound": POINT_VERIFY_BOUND}
        for p in (3, 5, 7, 11, 13, 19):
            for n in range(-POINT_HEIGHT, POINT_HEIGHT + 1):
                if in_theorem(lib, p, Fraction(n)):
                    op = ((p, Fraction(n), 1), "search", (p, Fraction(n)), options)
                    ops.extend([op] * (REPEATS[workload] if repeat else 1))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    random.Random(seed).shuffle(ops)
    return lib, modules, ops


def setup_seconds(workload, seed, repeat):
    """Median set-up time at reference speed: this process's own set-up, plus
    that of fresh interpreters."""
    sample, (lib, modules, ops) = clock.calibrated_seconds(make_ops, workload, seed, repeat)
    samples = [sample]
    for _ in range(SETUP_SAMPLES - 1):
        child = subprocess.run(
            [sys.executable, __file__, "--setup-only", "--workload", workload,
             "--seed", str(seed)], capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(child.stdout.split()[-1]))
    return statistics.median(samples), lib, modules, ops


def run_rounds(lib, ops, seconds, tracer):
    """Closed loop over whole rounds.

    Returns the rounds, each a list of (start, end, output or exception) per
    operation in wall-clock seconds, and the speed samples taken meanwhile.
    """
    rounds = []
    with clock.SpeedSampler() as speed:
        start = time.perf_counter()
        while True:
            round_start = time.perf_counter()
            results = []
            for i, (_, name, args, kwargs) in enumerate(ops):
                fn = getattr(lib, name)
                if tracer is not None:
                    tracer.op = len(rounds) * len(ops) + i
                    fn = functools.partial(tracer.call, SPAN_OF[name], fn)
                t0 = time.perf_counter()
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:  # an operation that raises is counted as failed
                    traceback.print_exc()
                    out = exc
                results.append((t0, time.perf_counter(), out))
            rounds.append(results)
            now = time.perf_counter()
            if (now - start) + (now - round_start) > seconds:  # the next round would overrun
                return rounds, speed


def check_outputs(workload, ops, rounds):
    """Independent checks, then the checkers' self-test on the outputs that
    passed.  Returns (failed operations, failed checks, corruptions rejected);
    identical outputs of one operation are checked once."""
    import checks

    verdicts = {}
    failed = failures = 0
    passed = {}
    for results in rounds:
        for (key, _, _, _), (_, _, out) in zip(ops, results):
            if isinstance(out, Exception):
                failed += 1
                continue
            if workload == "sweep":
                record = out.coefficients
                verdict_key = (key, record)
            else:
                record = out
                verdict_key = (key, tuple(c.to_json() for c in out))
            if verdict_key not in verdicts:
                try:
                    if workload == "sweep":
                        checks.check_build(*key, record)
                    else:
                        checks.check_search(*key, record)
                    verdicts[verdict_key] = True
                    passed[key] = record
                except checks.CheckFailed as exc:
                    print(f"check failed for {key}: {exc}", file=sys.stderr)
                    verdicts[verdict_key] = False
            if not verdicts[verdict_key]:
                failed += 1
                failures += 1
    try:
        if workload == "sweep":
            rejected = checks.self_test_builds(passed)
        else:
            rejected = checks.self_test_searches(
                {k: v for k, v in passed.items() if k in _selftest_keys(passed)})
    except checks.CheckFailed as exc:
        print(f"self-test failed: {exc}", file=sys.stderr)
        rejected = 0
    print(f"# self-test: {rejected} corrupted outputs rejected")
    return failed, failures, rejected


def _selftest_keys(passed):
    """One search per level (the first in sorted order) plus the anchor."""
    keys = {}
    for key in sorted(passed, key=lambda k: (k[0], k[1])):
        keys.setdefault(key[0], key)
    return set(keys.values()) | {k for k in passed if (k[0], k[1]) == (11, Fraction(21, 2))}


def percentile(values, fraction):
    """The ``fraction`` quantile of ``values``.

    From HARRELL_DAVIS_MIN values on it is the Harrell-Davis estimate, a
    mean of all order statistics weighted by a Beta distribution centred on
    the quantile: the operations' costs leave gaps, and a single order
    statistic jumps across them when noise reorders neighbours (over ten
    seeds on ``sweep`` the quartile spread of the plain median was 0.108, of
    this estimate 0.038).  Fewer values are interpolated linearly between
    closest ranks.
    """
    values = sorted(values)
    n = len(values)
    if n < HARRELL_DAVIS_MIN:
        pos = fraction * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        return values[lo] + (values[hi] - values[lo]) * (pos - lo)
    import mpmath  # here, not at the top, so that set-up still pays for it

    a, b = fraction * (n + 1), (1 - fraction) * (n + 1)
    return sum(float(mpmath.betainc(a, b, i / n, (i + 1) / n, regularized=True)) * v
               for i, v in enumerate(values))


def end_to_end(workload, ops, rounds, speed, setup_s, rss_mb):
    """The metrics BENCHMARK.json lists, and the workload's own named figures.

    An operation's time is the median of its reference times over its
    occurrences in all rounds; ``round_s`` is the sum of those over distinct
    operations, and the percentiles are taken over distinct operations.
    """
    samples = {}
    for results in rounds:
        for (key, *_), (start, end, _) in zip(ops, results):
            samples.setdefault(key, []).append(speed.reference_seconds(start, end))
    op_s = {key: statistics.median(times) for key, times in samples.items()}
    metrics = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "round_s": (sum(op_s.values()), "s"),
        "op_p50_ms": (1000 * percentile(op_s.values(), 0.5), "ms"),
        "op_p90_ms": (1000 * percentile(op_s.values(), 0.9), "ms"),
    }
    named = {"setup_s": metrics["setup_s"], "peak_rss_mb": metrics["peak_rss_mb"]}
    if workload == "sweep":
        named["sweep_s"] = metrics["round_s"]
        named["build_p50_ms"] = metrics["op_p50_ms"]
        named["build_p90_ms"] = metrics["op_p90_ms"]
    elif workload == "levels":
        def level_s(levels):
            return sum(t for key, t in op_s.items() if key[0] in levels)
        named["search_p3_s"] = (level_s((3,)), "s")
        named["search_p7_s"] = (level_s((7,)), "s")
        named["search_small_s"] = (level_s(SMALL_LEVELS), "s")
    else:
        named["points_per_s"] = (len(op_s) / metrics["round_s"][0], "1/s")
        named["point_p50_ms"] = metrics["op_p50_ms"]
        named["point_p90_ms"] = metrics["op_p90_ms"]
    return metrics, named, samples


def run_workload(args):
    # the traced run makes each operation once a round, so that per-layer
    # counts are per distinct operation
    setup_s, lib, modules, ops = setup_seconds(args.workload, args.seed, not args.trace)
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install(modules)
    rounds, speed = run_rounds(lib, ops, args.seconds, tracer)
    if tracer is not None:
        tracer.remove()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed, failures, rejected = check_outputs(args.workload, ops, rounds)
    metrics, named, samples = end_to_end(args.workload, ops, rounds, speed, setup_s, rss_mb)
    print(f"# {args.workload}: {len(samples)} distinct operations, {len(ops)} a round, "
          f"{len(rounds)} rounds, seed {args.seed}, trace {args.trace}; calibration median "
          f"{1000 * statistics.median(speed.costs):.3f} ms, reference "
          f"{1000 * clock.CALIBRATION_REF:.3f} ms")
    for name, (value, unit) in named.items():
        print(f"# {name} {value:.6g} {unit}")
    if tracer is not None:
        searches = [out for results in rounds for _, _, out in results
                    if isinstance(out, list)]
        layers = tracer.layer_metrics(len(rounds), searches, speed.wall_and_scale)
        for name, value in layers.items():
            print(f"# {name} {value:.6g}")
        metrics = {name: (value, unit_of(name)) for name, value in layers.items()}
    result = {
        "correct": failures == 0 and rejected > 0,
        "attempted": len(ops) * len(rounds),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(OUT, exist_ok=True)
    stem = os.path.join(OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.write(stem + ".spans.jsonl")
    with open(stem + ".json", "w") as out:
        json.dump({"named": {k: v[0] for k, v in named.items()}, **result,
                   "operations": [[str(key), times] for key, times in samples.items()]}, out)
    print(json.dumps(result))


def unit_of(layer_metric):
    name = layer_metric.split(".", 1)[1]
    if name.endswith("_s") or name == "s":
        return "s"
    return "bits" if "bits" in name else "count"


def run_all(args):
    """Each workload in its own interpreter, so caches and peak memory stay apart."""
    summary = {}
    for workload in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        lines = child.stdout.strip().splitlines()
        print("\n".join(line for line in lines if line.startswith("#")))
        summary[workload] = json.loads(lines[-1])
    print(json.dumps(summary))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.setup_only:
        print(clock.calibrated_seconds(make_ops, args.workload, args.seed)[0])
    elif args.workload == "all":
        run_all(args)
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
