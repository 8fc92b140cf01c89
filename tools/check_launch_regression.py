#!/usr/bin/env python3
"""Regression gate for the committed bench trajectories.

Every gate is one row of GATES: (file, row selector, metric, rule,
min-cores). A fresh bench JSON file is matched to its gates by
basename; rules that compare against the committed baseline read the
file of the same basename from --baseline-dir. The script exits 1 if
any gate fails.

The rules:

  - band       fresh <= baseline x TOLERANCE, per row present in both
               files. Structural counters (logical kernels, physical
               launches and host joins per op, and the limb-batch rows'
               per-device launches and MB) are machine-independent,
               so the 5% only absorbs iteration-count rounding; the
               per-device rows catch placement moving work onto one
               device, which leaves the totals unchanged. A
               bootstrap's device pool high-water is bounded by the
               per-stream queue cap, and it reads within 1.2% on 1 to 4
               cores. Its rotation-key count is exact: one more key
               than the baseline at 64 slots already fails.
  - time band  the same with the coarse TIME_TOLERANCE: CI machines
               differ from the committing machine, so it catches
               order-of-magnitude regressions (a kernel falling back
               to a far slower loop), not single-digit drift. Skipped
               under --skip-time-gate (Debug and sanitizer legs run
               against the Release-committed baseline).
  - equal      rows of one fresh file that share a key value must
               report the same metric: bootstrap rows at one slot
               count must join the host equally often, or one of
               them times enqueue rather than completion.
  - scaling    within the fresh file, the row with the larger key
               value (submitters, shards) must sustain at least the
               floor x the metric of the smaller one.

A fresh row with no baseline counterpart prints NEW and never fails.
A gate with a min-cores value prints SKIP when any selected row ran on
fewer cores: submitter and shard scaling is wall-clock parallelism
over kernel compute one request cannot fill, so a smaller machine
cannot express it. The benches record their core count in each row.

Usage: check_launch_regression.py [--skip-time-gate]
       --baseline-dir DIR FRESH.json [FRESH.json ...]
"""

import json
import os
import sys

TOLERANCE = 1.05  # 5% headroom for iteration rounding
TIME_TOLERANCE = 2.0  # coarse cross-machine wall-clock band
SERVE_SCALING = 1.3  # multi-submitter ops/s vs 1 submitter
CLUSTER_SCALING = 1.3  # 2-shard aggregate ops/s vs 1 shard
MIN_SERVE_CORES = 4  # below this, extra submitters cannot add ops/s


def load(path):
    with open(path) as f:
        rows = json.load(f)
    return {row["name"]: row for row in rows}


def every_row(row):
    return True


def closed_loop(row):
    """Open-loop rows share their submitter and shard counts with a
    closed-loop row, so the scaling gates select by shape."""
    return row.get("target_rps", 0) <= 0


def band(tolerance, timed=False):
    def rule(name, metric, rows, baseline, opts):
        if timed and not opts["time_gate"]:
            return [("SKIP", f"{name} {metric}: --skip-time-gate")]
        out = []
        for row_name, row in sorted(rows.items()):
            base = baseline.get(row_name)
            if base is None or metric not in row or metric not in base:
                continue
            got, want = row[metric], base[metric]
            verdict = "OK" if got <= want * tolerance else "FAIL"
            if timed:
                out.append((verdict, f"{row_name} {metric}: {got:.0f} "
                            f"(baseline {want:.0f}, band {tolerance}x)"))
            else:
                out.append((verdict, f"{row_name} {metric}: {got:.2f} "
                            f"(baseline {want:.2f})"))
        return out
    rule.needs_baseline = True
    return rule


def equal_by(key):
    def rule(name, metric, rows, baseline, opts):
        groups = {}
        for row_name, row in sorted(rows.items()):
            if key in row and metric in row:
                groups.setdefault(row[key], []).append(
                    (row_name, row[metric]))
        out = []
        for value, members in sorted(groups.items()):
            distinct = {v for _, v in members}
            listed = ", ".join(f"{n} {v:g}" for n, v in members)
            out.append(("OK" if len(distinct) == 1 else "FAIL",
                        f"{key}={value:g} rows {metric}: {listed}"))
        return out
    rule.needs_baseline = False
    return rule


def scaling(key, floor, pair=None):
    """@p pair fixes the (base, peak) key values and requires both
    rows; without it the smallest and largest values are compared."""
    def rule(name, metric, rows, baseline, opts):
        by_key = {row[key]: row for _, row in sorted(rows.items())}
        what = f"{name} {key} scaling"
        if pair is not None:
            if not all(k in by_key for k in pair):
                return [("FAIL", f"{what}: need the {key} {pair[0]} "
                         f"and {pair[1]} rows")]
            lo, hi = pair
        else:
            if len(by_key) < 2:
                return [("SKIP", f"{what}: need rows for >= 2 {key} "
                         "counts")]
            lo, hi = min(by_key), max(by_key)
        ratio = by_key[hi][metric] / by_key[lo][metric]
        label = (f"{what}: {hi} at {ratio:.2f}x of {lo} "
                 f"(floor {floor}x)")
        if opts["skip"]:
            return [("SKIP", f"{label} -- {opts['skip']}")]
        return [("OK" if ratio >= floor else "FAIL", label)]
    rule.needs_baseline = False
    return rule


LIMB = "BENCH_limb_batch.json"
BOOT = "BENCH_bootstrap.json"
SERVE = "BENCH_serve.json"
CLUSTER = "BENCH_cluster.json"


def per_row_bands(path):
    return [
        (path, every_row, "kernels_per_op", band(TOLERANCE), 0),
        (path, every_row, "kernel_launches", band(TOLERANCE), 0),
        (path, every_row, "syncs_per_op", band(TOLERANCE), 0),
        (path, every_row, "ns_per_op",
         band(TIME_TOLERANCE, timed=True), 0),
        (path, every_row, "host_dispatch_us",
         band(TIME_TOLERANCE, timed=True), 0),
    ]


# (file, row selector, metric, rule, min-cores)
GATES = (
    per_row_bands(LIMB)
    + [(LIMB, every_row, f"dev{d}_{metric}", band(TOLERANCE), 0)
       for d in (0, 1) for metric in ("launches", "MB")]
    + per_row_bands(BOOT)
    + [
        (BOOT, every_row, "syncs_per_op", equal_by("slots"), 0),
        (BOOT, every_row, "device_peak_mb", band(TOLERANCE), 0),
        (BOOT, every_row, "rotation_keys", band(TOLERANCE), 0),
        (SERVE, closed_loop, "ops_per_sec",
         scaling("submitters", SERVE_SCALING), MIN_SERVE_CORES),
        (CLUSTER, closed_loop, "ops_per_sec",
         scaling("shards", CLUSTER_SCALING, pair=(1, 2)),
         MIN_SERVE_CORES),
    ]
)


def main():
    args = sys.argv[1:]
    time_gate = "--skip-time-gate" not in args
    args = [a for a in args if a != "--skip-time-gate"]
    if len(args) < 3 or args[0] != "--baseline-dir":
        sys.exit(__doc__)
    baseline_dir, fresh_paths = args[1], args[2:]

    known = {g[0] for g in GATES}
    fresh = {}
    for path in fresh_paths:
        name = os.path.basename(path)
        if name not in known:
            sys.exit(f"no gates for {path} (expected one of "
                     f"{', '.join(sorted(known))})")
        fresh[name] = load(path)
        if not fresh[name]:
            sys.exit("FAIL: no benchmark rows in " + path)

    failures = 0
    for name in sorted(fresh):
        gates = [g for g in GATES if g[0] == name]
        baseline = {}
        if any(g[3].needs_baseline for g in gates):
            baseline = load(os.path.join(baseline_dir, name))
            for row in sorted(fresh[name]):
                if row not in baseline:
                    print(f"NEW  {row}: no baseline row, skipping")
        for _, select, metric, rule, min_cores in gates:
            rows = {n: r for n, r in fresh[name].items() if select(r)}
            skip = None
            if min_cores and rows:
                # Required field: defaulting it would disable the
                # gate forever if a bench refactor dropped it.
                cores = min(r["cores"] for r in rows.values())
                if cores < min_cores:
                    skip = (f"{cores} core(s) < {min_cores}, "
                            "wall-clock scaling not expressible")
            opts = {"time_gate": time_gate, "skip": skip}
            for verdict, label in rule(name, metric, rows, baseline,
                                       opts):
                print(f"{verdict:<4} {label}")
                failures += verdict == "FAIL"

    if failures:
        sys.exit(f"FAIL: {failures} regression(s) against the "
                 "committed gates")
    print("launch economy: no regressions")


if __name__ == "__main__":
    main()
