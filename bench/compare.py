"""Compare two sets of benchmark runs, A (the parent) and B (the change).

Each set is a JSONL file of run records written by ``run.py --out``.
For every workload and metric present in both sets, it prints each
side's median and quartiles, B's median over A's, the share of pairs
that B wins, and a verdict:

* ``improved``: B wins at least nine tenths of the pairs (ties count for
  neither side) and the medians differ, in B's favour, by more than the
  distance between A's quartiles;
* ``no worse``: B's median is no worse than A's by more than the
  metric's bound, and A's own spread is within the bound (or every run
  of B reads better than every run of A);
* ``unresolved``: A's spread (quartile distance over median) is wider
  than the bound, so "unchanged" cannot be told from noise;
* ``worse``: B's median is worse than A's by more than the bound.

Runs pair up by seed where both sets have the seed, otherwise in file
order.  Directions and bounds come from ``BENCHMARK.json``; per-layer
metrics have no bound, so they get only ``improved`` or ``unresolved``.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path


def load(path: str | Path) -> dict:
    """``{(workload, trace): [record, ...]}`` from a JSONL result file."""
    runs: dict = defaultdict(list)
    with open(path) as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                runs[(record["workload"], record["trace"])].append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pair_up(a_runs: list[dict], b_runs: list[dict]) -> list[tuple[dict, dict]]:
    b_by_seed = {run["seed"]: run for run in b_runs}
    pairs = [(run, b_by_seed[run["seed"]]) for run in a_runs if run["seed"] in b_by_seed]
    return pairs or list(zip(a_runs, b_runs))


def verdict(a: list[float], b: list[float], pairs: list[tuple[float, float]], better: str, bound: float | None) -> tuple[str, float]:
    """The verdict for B against A on one metric, and B's pair win share."""
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for x, y in pairs if sign * (y - x) > 0)
    win_share = wins / len(pairs) if pairs else 0.0
    a_q1, a_median, a_q3 = quartiles(a)
    b_median = statistics.median(b)
    gain = sign * (b_median - a_median)
    if pairs and win_share >= 0.9 and gain > a_q3 - a_q1:
        return "improved", win_share
    if bound is None:
        return "unresolved", win_share
    scale = abs(a_median) or 1.0
    all_better = min(sign * v for v in b) > max(sign * v for v in a)
    if (a_q3 - a_q1) / scale > bound and not all_better:
        return "unresolved", win_share
    if -gain / scale <= bound:
        return "no worse", win_share
    return "worse", win_share


def compare(a_sets: dict, b_sets: dict, spec: dict) -> list[dict]:
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    rows = []
    for key in sorted(set(a_sets) & set(b_sets)):
        a_runs, b_runs = a_sets[key], b_sets[key]
        pairs = pair_up(a_runs, b_runs)
        names = sorted(set(a_runs[0]["metrics"]) & set(b_runs[0]["metrics"]))
        for name in names:
            if name not in metrics:
                continue
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            paired = [(x["metrics"][name]["value"], y["metrics"][name]["value"]) for x, y in pairs]
            result, win_share = verdict(a, b, paired, metrics[name]["better"], metrics[name].get("bound"))
            a_median, b_median = statistics.median(a), statistics.median(b)
            rows.append(
                {
                    "workload": key[0],
                    "metric": name,
                    "unit": metrics[name]["unit"],
                    "a": quartiles(a),
                    "b": quartiles(b),
                    "runs": (len(a), len(b)),
                    "ratio": b_median / a_median if a_median else float("nan"),
                    "win_share": win_share,
                    "verdict": result,
                }
            )
    return rows


def _cell(values: tuple[float, float, float]) -> str:
    q1, median, q3 = values
    return f"{median:.6g} [{q1:.6g}, {q3:.6g}]"


def main(a_path: str, b_path: str, spec_path: Path) -> int:
    spec = json.loads(Path(spec_path).read_text())
    rows = compare(load(a_path), load(b_path), spec)
    print(
        f"{'workload':18s} {'metric':34s} {'unit':6s} {'runs':>6s} {'A median [q1, q3]':>36s} "
        f"{'B median [q1, q3]':>36s} {'B/A':>7s} {'wins':>5s} verdict"
    )
    for row in rows:
        runs = "{}/{}".format(*row["runs"])
        print(
            f"{row['workload']:18s} {row['metric']:34s} {row['unit']:6s} {runs:>6s} {_cell(row['a']):>36s} "
            f"{_cell(row['b']):>36s} {row['ratio']:7.3f} {row['win_share']:5.2f} {row['verdict']}"
        )
    return 0
