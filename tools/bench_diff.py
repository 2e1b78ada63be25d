#!/usr/bin/env python3
"""Perf-regression gate: compare a fresh BENCH_*.json against its checked-in
baseline (bench/baselines/).

Metrics are classified by how reproducible they are across hosts:

  * host wall-clock (``*_wall_s``) and ratios of host wall clock
    (``*wall_speedup*``, already threshold-asserted by the bench itself) --
    informational only, skipped. Modeled ratios (``overlap_speedup``,
    ``cores<N>_speedup``) are deterministic and stay gated; a bench whose
    host ratio is named otherwise skips it with ``--skip``;
  * host throughput (``*mips``/``*mops``/``*qps``) -- must stay above
    ``--min-frac`` of the baseline (catches an order-of-magnitude cliff such
    as the fast path silently falling back to bit-accurate simulation, while
    tolerating slower CI hosts);
  * integer-valued metrics (instruction counts, thread-ops, replay counts)
    -- deterministic, must match exactly;
  * everything else (modeled cycles/us/ratios) -- deterministic model
    outputs, must be within ``--rel-tol``.

A metric present on only one side fails with a named schema error: missing
from the current run is a schema regression, missing from the baseline (when
``--require-baselined`` is set) means the baseline was never refreshed after
the bench grew. By default new metrics are reported but do not fail, so
benches can grow. If a diff is intentional, regenerate with ``<bench>
--quick`` and copy the JSON over the baseline.

Benches whose JSON carries additional host-timed or load-dependent metrics
(e.g. measured serving latencies, chaos-storm retry counts) pass ``--skip
REGEX`` to merge extra skip patterns with the built-in ones. ``--list-skipped``
prints an audit of every metric that was excluded from gating and which
pattern excluded it -- use it to check a ``--skip`` regex is not quietly
swallowing metrics that should be gated.

usage: bench_diff.py <baseline.json> <current.json> [--rel-tol F]
                     [--min-frac F] [--skip REGEX] [--list-skipped]
                     [--require-baselined]
"""

import argparse
import json
import re
import sys

SKIP_PAT = re.compile(r"wall_s$|wall_speedup")
THROUGHPUT_PAT = re.compile(r"(mips|mops|qps)($|_)")


def skip_reason(key, extra_skip=None):
    """The pattern that excludes this metric from gating, or None."""
    if SKIP_PAT.search(key):
        return f"built-in /{SKIP_PAT.pattern}/"
    if extra_skip and extra_skip.search(key):
        return f"--skip /{extra_skip.pattern}/"
    return None


def classify(key, base_value, extra_skip=None):
    if skip_reason(key, extra_skip):
        return "skip"
    if THROUGHPUT_PAT.search(key):
        return "throughput"
    if isinstance(base_value, int) or float(base_value).is_integer():
        return "exact"
    return "model"


def load_metrics(path, side):
    """Parse one report; exit with a named schema error, never a traceback."""
    try:
        with open(path) as f:
            report = json.load(f)
    except OSError as e:
        sys.exit(f"FAIL: cannot read {side} report {path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"FAIL: {side} report {path} is not valid JSON: {e}")
    if not isinstance(report, dict) or "metrics" not in report:
        sys.exit(f"FAIL: {side} report {path} has no 'metrics' object")
    return report


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline")
    parser.add_argument("current")
    parser.add_argument(
        "--rel-tol",
        type=float,
        default=0.02,
        help="two-sided tolerance for modeled float metrics",
    )
    parser.add_argument(
        "--min-frac",
        type=float,
        default=0.10,
        help="host-throughput metrics must stay above this fraction "
        "of the baseline",
    )
    parser.add_argument(
        "--skip",
        default=None,
        metavar="REGEX",
        help="extra metric-name pattern to skip (merged with the built-in "
        "host wall-clock patterns)",
    )
    parser.add_argument(
        "--list-skipped",
        action="store_true",
        help="print an audit of every metric excluded from gating and "
        "which pattern excluded it",
    )
    parser.add_argument(
        "--require-baselined",
        action="store_true",
        help="also fail on metrics the current run reports but the "
        "baseline lacks (stale-baseline detector)",
    )
    args = parser.parse_args()
    try:
        extra_skip = re.compile(args.skip) if args.skip else None
    except re.error as e:
        sys.exit(f"FAIL: bad --skip regex {args.skip!r}: {e}")

    baseline = load_metrics(args.baseline, "baseline")
    current = load_metrics(args.current, "current")

    if baseline.get("bench") != current.get("bench"):
        print(
            f"FAIL: comparing different benches "
            f"({baseline.get('bench')} vs {current.get('bench')})"
        )
        return 1

    base_metrics = baseline.get("metrics", {})
    cur_metrics = current.get("metrics", {})
    failures = []
    skipped = []

    for key, base_value in base_metrics.items():
        if key not in cur_metrics:
            failures.append(
                f"{key}: in baseline {args.baseline} but missing from the "
                f"current run (schema regression -- the bench stopped "
                f"reporting it)"
            )
            continue
        cur_value = cur_metrics[key]
        if not isinstance(base_value, (int, float)) or isinstance(
            base_value, bool
        ):
            failures.append(
                f"{key}: baseline value {base_value!r} is not numeric "
                f"(malformed baseline -- regenerate it)"
            )
            continue
        if not isinstance(cur_value, (int, float)) or isinstance(
            cur_value, bool
        ):
            failures.append(
                f"{key}: current value {cur_value!r} is not numeric"
            )
            continue
        kind = classify(key, base_value, extra_skip)
        if kind == "skip":
            skipped.append((key, cur_value, skip_reason(key, extra_skip)))
            print(f"  skip  {key}: {cur_value} (host-dependent)")
        elif kind == "throughput":
            floor = args.min_frac * base_value
            if cur_value < floor:
                failures.append(
                    f"{key}: {cur_value:.6g} below {args.min_frac:.0%} of "
                    f"baseline {base_value:.6g}"
                )
            else:
                print(f"  ok    {key}: {cur_value:.6g} (floor {floor:.6g})")
        elif kind == "exact":
            if cur_value != base_value:
                failures.append(f"{key}: {cur_value} != baseline {base_value}")
            else:
                print(f"  ok    {key}: {cur_value}")
        else:
            denom = max(abs(base_value), 1e-12)
            rel = abs(cur_value - base_value) / denom
            if rel > args.rel_tol:
                failures.append(
                    f"{key}: {cur_value:.6g} drifts {rel:.1%} from "
                    f"baseline {base_value:.6g} (tol {args.rel_tol:.0%})"
                )
            else:
                print(f"  ok    {key}: {cur_value:.6g} (drift {rel:.2%})")

    for key in sorted(set(cur_metrics) - set(base_metrics)):
        if args.require_baselined:
            failures.append(
                f"{key}: reported by the current run but missing from the "
                f"baseline {args.baseline} (stale baseline -- regenerate it)"
            )
        else:
            print(f"  new   {key}: {cur_metrics[key]} (not in baseline)")

    if args.list_skipped:
        print(f"\nskipped-metric audit ({len(skipped)} excluded from gating):")
        if not skipped:
            print("  (none)")
        for key, value, reason in skipped:
            print(f"  {key}: {value}  [{reason}]")

    bench = baseline.get("bench")
    if failures:
        print(f"\nFAIL: {bench}: {len(failures)} metric(s) regressed:")
        for failure in failures:
            print(f"  {failure}")
        print(
            "If intentional, refresh the baseline: run the bench with "
            "--quick and copy its JSON into bench/baselines/."
        )
        return 1
    print(f"PASS: {bench}: {len(base_metrics)} metrics within tolerance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
