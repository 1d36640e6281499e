"""Benchmark of the spintile package: one command, one seed, five workloads.

Run one workload::

    python3 bench/run.py --workload tess_pairs --seed 1 --seconds 15 --trace 0

or every workload with ``--workload all``.  The inputs come from the
seed; set-up runs five times and its median is ``setup_s``; then the
workload runs whole passes over its inputs until ``--seconds`` have gone
by, checking every output.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``attempted`` and ``failed`` count the requests of one pass, the run's
distinct requests; the passes after it must fail the same ones.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs half
the time untraced and half traced, and reports the per-layer metrics
from the spans, each layer's self time and share of the workload, and
the tracing overhead (traced minus untraced pass time).

``--out FILE`` also appends the run's full record to a JSONL file, and
``--compare A B`` compares two such files (see ``compare.py``).

The run exits with 1 when an output check failed, and with 2, printing
no result, when the package source is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 5

END_TO_END = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "p90_ms": "ms",
    "setup_s": "s",
}

LAYERS = ("spinors", "tessellation", "quadruples", "disks", "svg", "enumeration", "cli")

# per-layer totals of these spans, per pass, as "<span>_s"
SPAN_TIMES = (
    "spinors.parse",
    "tessellation.build",
    "tessellation.summarize",
    "tessellation.observations",
    "tessellation.butterflies",
    "tessellation.json_dict",
    "tessellation.area_shoelace",
    "tessellation.area_pick",
    "quadruples.from_spinor_pair",
    "disks.place",
    "disks.realize_fourth",
    "disks.verify_laws",
    "disks.json_dict",
    "disks.midcircles",
    "svg.render_tessellation",
    "svg.render_configuration",
    "enumeration.enumerate_records",
    "enumeration.write_records",
    "enumeration.shard",
    "enumeration.merge_shards",
)
SPAN_COUNTS = {"spinors.parse_calls": "spinors.parse", "tessellation.pick_tiles": "tessellation.area_pick"}
COUNTERS = (
    "disks.fail_verdicts",
    "disks.typed_errors",
    "disks.untyped_errors",
    "svg.bytes",
    "enumeration.records",
    "enumeration.bytes_written",
)
PROBES = (
    "enumeration.shard_work_ratio",
    "cli.interpreter_ms",
    "cli.import_ms",
    *(f"cli.run_{command}_ms" for command in ("tess", "quad", "solve", "verify", "render", "enumerate")),
)


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_share", "_ratio", ".share")):
        return "ratio"
    if name.endswith("bytes") or name.endswith("bytes_written"):
        return "bytes"
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{span}_s" for span in SPAN_TIMES]
    names += list(SPAN_COUNTS) + list(COUNTERS) + ["disks.failed_share"] + list(PROBES)
    for layer in LAYERS:
        names += [f"{layer}.self_s", f"{layer}.share"]
    names += ["trace.overhead_s", "trace.overhead_share"]
    return names


def _run_passes(
    workload, state, tracer, tally, meter, seconds: float, outcomes: list[bool]
) -> list[tuple[list[float], int]]:
    """Whole passes until ``seconds`` of wall time have gone by (at least
    one); each pass is its requests' scaled latencies and its work.

    ``outcomes`` holds, per request of a pass, whether it failed.  The
    run's first pass fills it and is the one counted in ``attempted``
    and ``failed``; every later pass repeats the same requests for
    timing, is checked as closely, and must fail exactly the same ones.
    So the counts do not grow with the number of passes a run fits in.
    """
    from spintile import SpintileError

    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        work = 0
        failed_before = tally.failed
        failed = []
        for item in workload.items(state):
            meter.request()
            before = tally.failed
            try:
                work += workload.request(item, state, tracer, tally, meter)
            except SpintileError as exc:
                tally.failed += 1
                tally.counters[f"typed_errors.{type(exc).__name__}"] += 1
            except Exception as exc:  # counted as a failed request, the run goes on
                tally.failed += 1
                tally.counters[f"untyped_errors.{type(exc).__name__}"] += 1
            failed.append(tally.failed > before)
            meter.idle()
        passes.append((meter.take(), work))
        if outcomes:
            tally.failed = failed_before
            tally.check(
                failed == outcomes,
                f"a repeated pass failed other requests than the first ({sum(failed)} vs {sum(outcomes)})",
            )
        else:
            outcomes[:] = failed
            tally.attempted += len(failed)
    return passes


def _p90(durations: list[float]) -> float:
    return statistics.quantiles(durations, n=10)[-1] if len(durations) > 1 else durations[0]


def end_to_end(passes, setups: list[float]) -> dict:
    """The headline metrics.  ``p90_ms`` is the median over passes of
    each pass's p90 when every pass holds at least 100 requests (ten
    beyond its p90), so that a burst of machine noise in one pass does
    not move it; otherwise it is the p90 of all requests of the run."""
    durations = [d for pass_durations, _ in passes for d in pass_durations]
    rates = [work / sum(pass_durations) for pass_durations, work in passes]
    if min(len(pass_durations) for pass_durations, _ in passes) >= 100:
        p90 = statistics.median(_p90(pass_durations) for pass_durations, _ in passes)
    else:
        p90 = _p90(durations)
    return {
        "ops_per_s": statistics.median(rates),
        "p50_ms": 1000 * statistics.median(durations),
        "p90_ms": 1000 * p90,
        "setup_s": statistics.median(setups),
    }


def per_layer(workload, state, summary: dict, traced: Tally, traced_passes, untraced_passes, outcomes) -> dict:
    count = len(traced_passes)
    names = summary["names"]
    requests_s = summary["requests_s"] / count
    values = {}
    for span in SPAN_TIMES:
        values[f"{span}_s"] = names.get(span, {}).get("total_s", 0.0) / count
    for metric, span in SPAN_COUNTS.items():
        values[metric] = names.get(span, {}).get("count", 0) / count
    for counter in COUNTERS:
        values[counter] = traced.counters[counter] / count
    values["disks.failed_share"] = sum(outcomes) / len(outcomes)
    self_s = dict.fromkeys(LAYERS, 0.0)
    for name, entry in names.items():
        layer = name.split(".")[0]
        if layer in self_s:
            self_s[layer] += entry["self_s"]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = self_s[layer] / count
        values[f"{layer}.share"] = self_s[layer] / count / requests_s
    values.update(dict.fromkeys(PROBES, 0.0))
    values.update(workload.probe(state, summary, count))
    untraced_s = statistics.median(sum(d) for d, _ in untraced_passes)
    traced_s = statistics.median(sum(d) for d, _ in traced_passes)
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return values


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its full record."""
    import spans
    from workloads import WORKLOADS, Tally

    workload = WORKLOADS[name]
    (BENCH / "work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=BENCH / "work"))
    try:
        meter = workload.make_meter()
        for _ in range(1 if trace else SETUP_REPEATS):
            meter.request()
            start = perf_counter()
            state = workload.setup(seed, workdir)
            meter.add(perf_counter() - start)
            meter.flush()
        setups = meter.take()
        tally = Tally()
        workload.check_setup(state, tally)
        outcomes: list[bool] = []
        if trace:
            untraced = _run_passes(workload, state, spans.NULL, tally, meter, seconds / 2, outcomes)
            tracer = spans.Tracer()
            traced_tally = Tally()
            traced = _run_passes(workload, state, tracer, traced_tally, meter, seconds / 2, outcomes)
            metrics = per_layer(workload, state, tracer.summary(), traced_tally, traced, untraced, outcomes)
            passes = untraced + traced
            tally.absorb(traced_tally)
        else:
            passes = _run_passes(workload, state, spans.NULL, tally, meter, seconds, outcomes)
            metrics = end_to_end(passes, setups)
        units = {metric: _unit(metric) for metric in metrics} if trace else END_TO_END
        return {
            "workload": name,
            "seed": seed,
            "seconds": seconds,
            "trace": int(trace),
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "inputs": workload.describe(state),
            "work_unit": workload.work_unit,
            "passes": len(passes),
            "requests": sum(len(d) for d, _ in passes),
            "setup_runs_s": setups,
            "meter": meter.report(),
            "correct": tally.counters["mismatches"] == 0,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "counters": dict(sorted(tally.counters.items())),
            "mismatches": tally.mismatches,
            "metrics": {metric: {"value": value, "unit": units[metric]} for metric, value in metrics.items()},
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def print_record(record: dict) -> None:
    print(
        f"workload {record['workload']}  seed {record['seed']}  seconds {record['seconds']}  "
        f"trace {record['trace']}  python {record['python']}  nproc {record['nproc']}"
    )
    print(f"  inputs {json.dumps(record['inputs'])}")
    share = record["failed"] / record["attempted"]
    print(
        f"  passes {record['passes']}  requests {record['requests']}  attempted {record['attempted']}  "
        f"failed {record['failed']}  failed_share {share:.6g}  correct {record['correct']}"
    )
    print(f"  counters {json.dumps(record['counters'])}")
    print(f"  meter {json.dumps(record['meter'])}")
    for message in record["mismatches"]:
        print(f"  MISMATCH {message}")
    for metric, entry in record["metrics"].items():
        print(f"  {metric:32s} {entry['value']:>16.6g} {entry['unit']}")


def result_line(record: dict) -> dict:
    return {key: record[key] for key in ("correct", "attempted", "failed", "metrics")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE", help="append the full record of each run to FILE (JSONL)")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two result files and exit")
    args = parser.parse_args(argv)

    if args.compare:
        import compare

        return compare.main(*args.compare, ROOT / "BENCHMARK.json")

    if not (ROOT / "src" / "spintile" / "__init__.py").is_file():
        print(f"no spintile package under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"--workload must be 'all' or one of {', '.join(WORKLOADS)}")
    records = []
    for name in names:
        record = measure(name, args.seed, args.seconds, bool(args.trace))
        print_record(record)
        records.append(record)
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(record) + "\n")
    if len(records) == 1:
        result = result_line(records[0])
    else:
        result = {
            "correct": all(r["correct"] for r in records),
            "attempted": sum(r["attempted"] for r in records),
            "failed": sum(r["failed"] for r in records),
            "metrics": {f"{r['workload']}.{m}": v for r in records for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
