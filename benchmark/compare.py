#!/usr/bin/env python3
"""Compare benchmark runs of two commits, or check single runs.

Each FILE is the standard output of one `bash benchmark/run.sh` run: a
`benchmark: workload=... trace=...` header line and, last, the JSON result.

  compare.py A1 B1 A2 B2 ...   files alternate parent (A) and change (B)
  compare.py --check FILE...   check each output against BENCHMARK.json
  compare.py --medians FILE... print per-workload metric medians as JSON

A comparison prints one row per workload x metric: each side's median and
quartiles, the fraction of pairs the change wins (ties count for neither),
and a verdict against the metric's bound in BENCHMARK.json:

  regression     the change's median is worse than the parent's by more
                 than the bound
  unresolved     the parent's own quartile spread exceeds the bound
  better         ... but every change run beats every parent run
  gain           the change wins at least 90% of pairs and the medians
                 differ by more than the parent's quartile spread
  no-change      none of the above
  too-few-pairs  fewer than 10 pairs: no verdict is drawn
  no-bound       a per-layer metric, shown for reading only

A gain does not count when the change fails more operations than the
parent. Exit status: 0, or 1 when some row is a regression, or 2 on
malformed input.
"""

import json
import math
import statistics
import sys
from collections import defaultdict
from pathlib import Path

MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_spec():
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    spec = json.loads(path.read_text())
    metrics = {}
    for m in spec["end_to_end"]:
        metrics[m["name"]] = dict(m)
    for m in spec["per_layer"]:
        metrics[m["name"]] = dict(m, bound=None)
    return spec, metrics


def fail(message):
    print(f"compare.py: {message}", file=sys.stderr)
    sys.exit(2)


def load_run(path):
    """(workload, trace flag, result object) of one run's output."""
    try:
        lines = Path(path).read_text().splitlines()
    except OSError as e:
        fail(f"{path}: {e}")
    header = next((l for l in lines if l.startswith("benchmark: ")), None)
    if header is None or not lines:
        fail(f"{path}: no 'benchmark:' header line")
    fields = dict(kv.split("=", 1) for kv in header.split()[1:] if "=" in kv)
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError as e:
        fail(f"{path}: last line is not JSON ({e})")
    return fields.get("workload"), fields.get("trace"), result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def check(paths, spec, metrics):
    """Every expected metric printed with its unit; the JSON well formed."""
    errors = []
    for path in paths:
        workload, trace, result = load_run(path)
        group = "end_to_end" if trace == "0" else "per_layer"
        want = {m["name"]: m["unit"] for m in spec[group]}
        where = f"{path} ({workload}, trace={trace})"
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            errors.append(f"{where}: keys {sorted(result)}")
            continue
        if result["correct"] is not True or result["failed"] != 0:
            errors.append(f"{where}: correct={result['correct']} "
                          f"failed={result['failed']}")
        if not isinstance(result["attempted"], int) or result["attempted"] < 1:
            errors.append(f"{where}: attempted={result['attempted']}")
        got = result["metrics"]
        for name in sorted(set(want) ^ set(got)):
            errors.append(f"{where}: metric {name} "
                          + ("missing" if name in want else "unexpected"))
        for name in sorted(set(want) & set(got)):
            entry = got[name]
            value = entry.get("value")
            if set(entry) != {"value", "unit"} or entry["unit"] != want[name]:
                errors.append(f"{where}: {name} has {entry}, unit should be "
                              f"{want[name]}")
            elif (isinstance(value, bool) or
                  not isinstance(value, (int, float)) or
                  not math.isfinite(value)):
                errors.append(f"{where}: {name} value {value!r}")
    for e in errors:
        print(f"check: {e}")
    print(f"check: {len(paths)} outputs, {len(errors)} problems")
    return 1 if errors else 0


def by_workload(paths):
    """workload -> list of results, in file order."""
    groups = defaultdict(list)
    for path in paths:
        workload, _, result = load_run(path)
        groups[workload].append(result)
    return groups


def medians(paths, metrics):
    out = {}
    for workload, results in sorted(by_workload(paths).items()):
        out[workload] = {}
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if values:
                out[workload][name] = statistics.median(values)
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0


def verdict(metric, a, b):
    higher = metric["better"] == "higher"
    sign = 1.0 if higher else -1.0
    a_q1, a_med, a_q3 = quartiles(a)
    _, b_med, _ = quartiles(b)
    wins = sum(1 for x, y in zip(a, b) if sign * (y - x) > 0)
    win_share = wins / len(a)
    if len(a) < MIN_PAIRS:
        return win_share, "too-few-pairs"
    bound = metric["bound"]
    if bound is None:
        return win_share, "no-bound"
    scale = abs(a_med) if a_med != 0 else 1.0
    spread = (a_q3 - a_q1) / scale
    worse = -sign * (b_med - a_med) / scale
    if spread > bound:
        better_all = all(sign * (y - x) > 0 for x in a for y in b)
        return win_share, "better" if better_all else "unresolved"
    if worse > bound:
        return win_share, "regression"
    if win_share >= WIN_SHARE and abs(b_med - a_med) > a_q3 - a_q1:
        return win_share, "gain"
    return win_share, "no-change"


def compare(paths, metrics):
    if len(paths) % 2 != 0:
        fail("files must alternate parent and change: give an even count")
    parent, change = by_workload(paths[0::2]), by_workload(paths[1::2])
    if sorted(parent) != sorted(change):
        fail(f"workloads differ: {sorted(parent)} vs {sorted(change)}")
    rows = []
    regressions = 0
    for workload in sorted(parent):
        a_runs, b_runs = parent[workload], change[workload]
        if len(a_runs) != len(b_runs):
            fail(f"{workload}: {len(a_runs)} parent runs, "
                 f"{len(b_runs)} change runs")
        a_failed = sum(r["failed"] for r in a_runs)
        b_failed = sum(r["failed"] for r in b_runs)
        runs = a_runs + b_runs
        names = [n for n in metrics if all(n in r["metrics"] for r in runs)]
        for name in names:
            a = [r["metrics"][name]["value"] for r in a_runs]
            b = [r["metrics"][name]["value"] for r in b_runs]
            win_share, v = verdict(metrics[name], a, b)
            if v == "gain" and b_failed > a_failed:
                v = "no-change (more failed operations)"
            regressions += v == "regression"
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            rows.append((workload, name,
                         f"{a_med:.6g} [{a_q1:.6g}, {a_q3:.6g}]",
                         f"{b_med:.6g} [{b_q1:.6g}, {b_q3:.6g}]",
                         f"{100 * win_share:.0f}%", v))
        a_attempted = sum(r["attempted"] for r in a_runs)
        b_attempted = sum(r["attempted"] for r in b_runs)
        rows.append((workload, "failed operations",
                     f"{a_failed}/{a_attempted}", f"{b_failed}/{b_attempted}",
                     "", ""))
    head = ("workload", "metric", "parent median [q1, q3]",
            "change median [q1, q3]", "wins", "verdict")
    widths = [max(len(r[i]) for r in rows + [head]) for i in range(len(head))]
    for row in [head] + rows:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    pairs = len(paths) // 2
    if pairs < MIN_PAIRS * len(parent):
        print(f"note: {pairs} pairs; a verdict needs {MIN_PAIRS} per workload")
    return 1 if regressions else 0


def main(argv):
    spec, metrics = load_spec()
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__)
        return 0 if argv else 2
    if argv[0] == "--check":
        return check(argv[1:], spec, metrics)
    if argv[0] == "--medians":
        return medians(argv[1:], metrics)
    return compare(argv, metrics)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
