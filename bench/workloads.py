"""The benchmark's workloads: set-up, one pass of requests, and checks.

Each workload is a closed loop with one client: the next request starts
when the previous one has returned.  A request's latency is the time
spent in the package's calls only, handed to a ``meter.Meter`` that
scales it; the checks on its outputs run after the clock stops, and any
mismatch makes the run incorrect.  A pass is one walk over the
workload's ``items``; ``request`` returns a request's work, which is
what the headline rate counts (records for the two enumeration
workloads, one per request for the others).  The runner counts
requests, and counts an exception that escapes a request as a failed
one, typed ``SpintileError``s apart from the rest.

Spans wrap each call from here into a layer of the package; untraced
runs pass ``spans.NULL``.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import inputs
import spans
from meter import CHILD_S, UNMETERED, Meter, stdlib_child
from spintile import (
    DEFAULT_TOLERANCE,
    RenderOptions,
    Spinor,
    SpintileError,
    build_tessellation,
    butterfly_areas,
    check_observations,
    cli,
    enumeration,
    from_spinor_pair,
    midcircle_through_tangencies,
    place_configuration,
    realize_fourth,
    render_configuration,
    render_tessellation,
    summarize,
    tessellation_to_json_dict,
    tile_area_pick,
    tile_area_shoelace,
    verify_spinor_laws,
)

SRC = Path(__file__).resolve().parent.parent / "src"


class Tally:
    """Outcome counts of a run: requests attempted and failed, named
    counters, and the output mismatches that make a run incorrect."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.counters: Counter = Counter()
        self.mismatches: list[str] = []

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.counters["mismatches"] += 1
            if len(self.mismatches) < 20:
                self.mismatches.append(message)

    def absorb(self, other: Tally) -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.counters.update(other.counters)
        self.mismatches += other.mismatches


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# ---------------------------------------------------------------- enumerate


def _expected_enumeration(bound: int, primitive_only: bool):
    """The enumeration stream recomputed from the definition, in order:
    ``(m1, n1, m2, n2, A, B, C, D1, D2, canonical, primitive)``."""
    span = range(-bound, bound + 1)
    points = [(m, n) for m in span for n in span if (m, n) != (0, 0)]
    for a in points:
        for b in points:
            curvatures = inputs.family(a, b)
            entries = sorted(curvatures[:4])
            common = math.gcd(*entries)
            if primitive_only and common != 1:
                continue
            yield (*a, *b, *curvatures, tuple(v // common for v in entries), common == 1)


def _check_enumeration_file(path: Path, bound: int, primitive_only: bool, fmt: str, tally: Tally) -> int:
    """Check every record of an enumeration file against the definition:
    order, curvatures, both Descartes residuals (with ``==``), canonical
    form and primitivity.  Returns the record count."""
    lines = path.read_text().splitlines()
    if fmt == "csv":
        tally.check(lines[:1] == [enumeration.CSV_HEADER], f"{path.name}: csv header")
        rows = []
        for line in lines[1:]:
            parts = line.split(",")
            canonical = tuple(int(v) for v in parts[9].split(":"))
            rows.append((*(int(v) for v in parts[:9]), canonical, parts[10] == "true"))
    else:
        rows = []
        for line in lines:
            record = json.loads(line)
            rows.append(
                (
                    *(record[key] for key in ("m1", "n1", "m2", "n2", "A", "B", "C", "D1", "D2")),
                    tuple(record["canonical"]),
                    record["primitive"],
                )
            )
    expected = list(_expected_enumeration(bound, primitive_only))
    tally.check(len(rows) == len(expected), f"{path.name}: {len(rows)} records, expected {len(expected)}")
    for got, want in zip(rows, expected):
        if got != want:
            tally.check(False, f"{path.name}: record {got} differs from {want}")
            break
        for d in got[7:9]:
            tally.check(inputs.descartes_residual(got[4:7] + (d,)) == 0, f"residual of {got}")
    return len(rows)


def _write_job(job: enumeration.EnumerationJob, path: str, tracer) -> int:
    """``enumerate_records`` streamed into ``write_records``; a traced
    run drains the generator into a list first, so that the two stages
    are timed apart."""
    if tracer.enabled:
        with tracer.span("enumeration.enumerate_records"):
            records = list(enumeration.enumerate_records(job))
    else:
        records = enumeration.enumerate_records(job)
    with tracer.span("enumeration.write_records"):
        return enumeration.write_records(records, path, job.output_format)


class Workload:
    """Defaults: kernel-scaled time, no set-up checks, no probes."""

    def make_meter(self) -> Meter:
        return Meter()

    def check_setup(self, state: dict, tally: Tally) -> None:
        return None

    def probe(self, state: dict, layer: dict, passes: int) -> dict:
        """Per-layer metrics measured apart from the traced passes."""
        return {}


class EnumerateStream(Workload):
    """Pass (a): the whole box, unsharded and unfiltered, streamed to a
    CSV file through ``write_records``."""

    name = "enumerate_stream"
    work_unit = "records"
    fmt = "csv"
    primitive_only = False

    def job(self, shard: enumeration.Shard | None = None) -> enumeration.EnumerationJob:
        return enumeration.EnumerationJob(
            bound=inputs.ENUMERATE_BOUND,
            primitive_only=self.primitive_only,
            output_format=self.fmt,
            shard=shard or enumeration.Shard(),
        )

    def describe(self, state: dict) -> dict:
        return {"bound": inputs.ENUMERATE_BOUND, "format": self.fmt, "seed_used": False}

    def setup(self, seed: int, workdir: Path) -> dict:
        # the box is fixed; the seed does not change the inputs
        reference = workdir / f"reference.{self.fmt}"
        count = enumeration.write_records(
            enumeration.enumerate_records(self.job()), str(reference), self.fmt
        )
        return {"workdir": workdir, "reference": reference, "count": count, "digest": _digest(reference)}

    def check_setup(self, state: dict, tally: Tally) -> None:
        checked = _check_enumeration_file(
            state["reference"], inputs.ENUMERATE_BOUND, self.primitive_only, self.fmt, tally
        )
        tally.check(checked == state["count"], "reference count differs from write_records")

    def items(self, state: dict) -> list:
        return [None]

    def request(self, item, state: dict, tracer, tally: Tally, meter: Meter) -> int:
        out = state["workdir"] / f"stream.{self.fmt}"
        job = self.job()
        with tracer.span(f"{self.name}.request"), meter.timed():
            count = _write_job(job, str(out), tracer)
        ok = count == state["count"] and _digest(out) == state["digest"]
        tally.check(ok, f"{out.name} differs from the reference")
        tally.failed += not ok
        tally.counters["enumeration.records"] += count
        tally.counters["enumeration.bytes_written"] += out.stat().st_size
        return count


class EnumerateShards(EnumerateStream):
    """Pass (b): the same box with ``--primitive`` as JSONL, written as
    four shards one after another and combined by ``merge_shards``; the
    merged bytes must equal the unsharded reference.  Each shard and the
    merge is one request."""

    name = "enumerate_shards"
    fmt = "jsonl"
    primitive_only = True

    def describe(self, state: dict) -> dict:
        return {**super().describe(state), "primitive": True, "shards": inputs.SHARD_COUNT}

    def items(self, state: dict) -> list:
        # one request per call a user makes: each shard, then the merge
        return [*range(inputs.SHARD_COUNT), "merge"]

    def _path(self, state: dict, shard) -> str:
        return str(state["workdir"] / f"shard-{shard}.{self.fmt}")

    def request(self, item, state: dict, tracer, tally: Tally, meter: Meter) -> int:
        if item != "merge":
            path = self._path(state, item)
            job = self.job(enumeration.Shard(item, inputs.SHARD_COUNT))
            with tracer.span(f"{self.name}.request"), meter.timed(), tracer.span("enumeration.shard"):
                written = _write_job(job, path, tracer)
            tally.counters["enumeration.records"] += written
            tally.counters["enumeration.bytes_written"] += os.path.getsize(path)
            return 0
        paths = [self._path(state, k) for k in range(inputs.SHARD_COUNT)]
        merged = state["workdir"] / f"merged.{self.fmt}"
        with tracer.span(f"{self.name}.request"), meter.timed(), tracer.span("enumeration.merge_shards"):
            count = enumeration.merge_shards(paths, str(merged), self.fmt)
        ok = count == state["count"] and _digest(merged) == state["digest"]
        tally.check(ok, "merged shards differ from the unsharded reference")
        tally.failed += not ok
        tally.counters["enumeration.records"] += count
        tally.counters["enumeration.bytes_written"] += merged.stat().st_size
        return count

    def probe(self, state: dict, layer: dict, passes: int) -> dict:
        # the unsharded job, drained like the traced shards, as the base
        # of the shard work ratio
        out = state["workdir"] / f"unsharded.{self.fmt}"
        times = []
        for _ in range(3):
            start = perf_counter()
            _write_job(self.job(), str(out), spans.Tracer())
            times.append(perf_counter() - start)
        shard_s = layer["names"].get("enumeration.shard", {}).get("total_s", 0.0) / passes
        return {"enumeration.shard_work_ratio": shard_s / statistics.median(times)}


# --------------------------------------------------------------- tess_pairs


def _parse_exact(text: str) -> tuple[Fraction, Fraction]:
    x, y = text.split(",")
    return Fraction(x), Fraction(y)


class TessPairs(Workload):
    """Parse a pair, tessellate it and take every exact report of the
    pair, its three area routes and its SVG."""

    name = "tess_pairs"
    work_unit = "pairs"

    def describe(self, state: dict) -> dict:
        return {
            "pairs_per_pass": inputs.TESS_SMALL + inputs.TESS_LARGE + inputs.TESS_RATIONAL,
            "small": inputs.TESS_SMALL,
            "large": inputs.TESS_LARGE,
            "rational": inputs.TESS_RATIONAL,
            "pick_pairs": sum(1 for request in state["requests"] if request[3]),
        }

    def setup(self, seed: int, workdir: Path) -> dict:
        requests = []
        for kind, a_text, b_text in inputs.tess_pairs(seed):
            a, b = _parse_exact(a_text), _parse_exact(b_text)
            pick = kind == "small" and inputs.fully_positive(a, b)
            requests.append((a_text, b_text, inputs.family(a, b), pick))
        state = {"requests": requests}
        # warm-up: the first quarter of the pass, outside the measurement
        warm = Tally()
        for request in requests[: len(requests) // 4]:
            self.request(request, state, spans.NULL, warm, UNMETERED)
        return state

    def items(self, state: dict) -> list:
        return state["requests"]

    def request(self, request: tuple, state: dict, tracer, tally: Tally, meter: Meter) -> int:
        a_text, b_text, family, pick = request
        span = tracer.span
        with span("tess_pairs.request"), meter.timed():
            with span("spinors.parse"):
                a = Spinor.parse(a_text)
            with span("spinors.parse"):
                b = Spinor.parse(b_text)
            with span("tessellation.build"):
                tess = build_tessellation(a, b)
            with span("tessellation.summarize"):
                report = summarize(tess)
            with span("tessellation.observations"):
                observations = check_observations(tess)
            with span("tessellation.butterflies"):
                butterflies = butterfly_areas(tess)
            with span("tessellation.json_dict"):
                payload = tessellation_to_json_dict(tess)
            with span("quadruples.from_spinor_pair"):
                quad_family = from_spinor_pair(a, b)
            shoelace = []
            for tile in tess.tiles:
                with span("tessellation.area_shoelace"):
                    shoelace.append(tile_area_shoelace(tile))
            picked = []
            if pick:
                for tile in tess.tiles:
                    with span("tessellation.area_pick"):
                        picked.append(tile_area_pick(tile))
            with span("svg.render_tessellation"):
                document = render_tessellation(tess)
        big_a, big_b, big_c, d1, d2 = family
        where = f"pair {a_text} {b_text}"
        checks = (
            (report.red_areas == (big_a, big_b, big_c), "red areas differ from A, B, C"),
            (report.descartes_residual_d == 0 and report.descartes_residual_d_prime == 0, "nonzero residual"),
            (inputs.descartes_residual((big_a, big_b, big_c, report.curvature_d)) == 0, "D is not a root"),
            (all(o.passed for o in observations), "an observation failed"),
            (butterflies == (report.curvature_d,) * 3, "butterflies differ from D"),
            ({quad_family.d1, quad_family.d2} == {report.curvature_d, report.curvature_d_prime}, "{D1, D2} != {D, D'}"),
            ((quad_family.d1, quad_family.d2) == (d1, d2), "D1, D2 differ from the definition"),
            ([tile.signed_area for tile in tess.tiles] == shoelace, "shoelace areas differ"),
            (not pick or picked == shoelace, "lattice-point areas differ"),
            (payload["report"]["descartes_residual_D"] == "0", "json residual"),
            (document.count("<polygon") == 15, "svg does not have 15 tiles"),
        )
        ok = True
        for passed, message in checks:
            tally.check(passed, f"{where}: {message}")
            ok = ok and passed
        tally.failed += not ok
        tally.counters["svg.bytes"] += len(document)
        return 1


# -------------------------------------------------------- verify_quadruples


def _placement_order(curvatures: tuple) -> tuple[list[int], int]:
    """The first three positive curvatures are placed; the remaining one
    is realized against them (what ``verify`` does)."""
    positives = [i for i, v in enumerate(curvatures) if v > 0]
    base = positives[:3]
    fourth = next(i for i in range(4) if i not in base)
    return base, fourth


LABELS = ("A", "B", "C", "D")


class VerifyQuadruples(Workload):
    """Place a genuine Descartes quadruple, realize its fourth disk,
    check the six spinor laws, and render it with its midcircles: what
    ``verify`` followed by ``render --midcircles`` runs.  A FAIL verdict
    or an exception is a failed request."""

    name = "verify_quadruples"
    work_unit = "quadruples"

    def describe(self, state: dict) -> dict:
        kinds = Counter(kind for kind, _ in state["requests"])
        return {"quadruples_per_pass": len(state["requests"]), **kinds}

    def setup(self, seed: int, workdir: Path) -> dict:
        state = {"requests": inputs.verify_quadruples(seed)}
        warm = Tally()
        for request in state["requests"][: len(state["requests"]) // 4]:
            self.request(request, state, spans.NULL, warm, UNMETERED)
        return state

    def items(self, state: dict) -> list:
        return state["requests"]

    def request(self, request: tuple, state: dict, tracer, tally: Tally, meter: Meter) -> int:
        kind, curvatures = request
        base, fourth = _placement_order(curvatures)
        span = tracer.span
        error = report = None
        with span("verify_quadruples.request"), meter.timed():
            try:
                with span("disks.place"):
                    placed = place_configuration(*(curvatures[i] for i in base))
                with span("disks.realize_fourth"):
                    fourth_disk = realize_fourth(placed, curvatures[fourth])
                by_index = dict(zip(base, placed))
                by_index[fourth] = fourth_disk
                disks = tuple(by_index[i] for i in range(4))
                with span("disks.verify_laws"):
                    report = verify_spinor_laws(disks, DEFAULT_TOLERANCE, LABELS)
                with span("disks.json_dict"):
                    payload = report.to_json_dict()
                midcircles = []
                for skip in range(4):
                    triple = [disk for i, disk in enumerate(disks) if i != skip]
                    with span("disks.midcircles"):
                        midcircles.append(midcircle_through_tangencies(*triple))
                with span("svg.render_configuration"):
                    document = render_configuration(
                        disks, midcircles, RenderOptions(show_midcircles=True), LABELS
                    )
            except SpintileError as exc:
                error = ("disks.typed_errors", exc)
            except Exception as exc:  # a raw exception is a defect to count, not a crash
                error = ("disks.untyped_errors", exc)
        # the verdict counts even when a later stage raised
        fail_verdict = report is not None and not report.passed
        if fail_verdict:
            tally.counters["disks.fail_verdicts"] += 1
            tally.counters[f"fail_verdicts.{kind}"] += 1
        tally.failed += fail_verdict or error is not None
        if error is not None:
            tally.counters[error[0]] += 1
            tally.counters[f"errors.{kind}.{type(error[1]).__name__}"] += 1
            return 1
        where = f"quadruple {curvatures}"
        tally.check(
            tuple(disk.curvature for disk in disks) == tuple(float(v) for v in curvatures),
            f"{where}: placed curvatures differ from the input",
        )
        tally.check(payload["passed"] == report.passed, f"{where}: json verdict differs")
        tally.check(
            document.count('class="disk"') == 4 and document.count('class="midcircle"') == 4,
            f"{where}: svg does not have 4 disks and 4 midcircles",
        )
        tally.counters["svg.bytes"] += len(document)
        return 1


# ---------------------------------------------------------- cli_invocations


def cli_env() -> dict:
    """The child's environment: the package from this checkout, and no
    other Python settings of the caller, so bytecode caching is on."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


class CliInvocations(Workload):
    """``python -m spintile.cli`` as one child process at a time, over a
    seeded mix of every subcommand; each result must equal the golden
    captured in-process during set-up."""

    name = "cli_invocations"
    work_unit = "invocations"
    samples = 15  # subprocesses per import probe

    def make_meter(self) -> Meter:
        return Meter(partial(stdlib_child, cli_env()), CHILD_S, slice_s=0.0, repeats=1)

    def describe(self, state: dict) -> dict:
        return {"invocations_per_pass": len(state["mix"]), "mix": [name for name, _, _ in state["mix"]]}

    def setup(self, seed: int, workdir: Path) -> dict:
        paths = {
            "tess_json": workdir / "tess.json",
            "verify_json": workdir / "verify.json",
            "svg": workdir / "out.svg",
        }
        mix = []
        for name, argv in inputs.cli_mix(seed):
            mix.append((name, [arg.format(**paths) for arg in argv], "{svg}" in argv))
        by_name = {name: argv for name, argv, _ in mix}
        for payload in ("tess_json", "verify_json"):
            paths[payload].write_text(run_in_process(by_name[payload])[1])
        goldens = {}
        for name, argv, writes_svg in mix:
            code, out, err = run_in_process(argv)
            svg = paths["svg"].read_bytes() if writes_svg else None
            goldens[name] = (code, out, err, svg)
        state = {"mix": mix, "goldens": goldens, "svg": paths["svg"], "workdir": workdir, "env": cli_env()}
        # one child first, so the interpreter and the package's bytecode
        # are cached before timing, as for an installed package
        self.request(mix[0], state, spans.NULL, Tally(), UNMETERED)
        return state

    def check_setup(self, state: dict, tally: Tally) -> None:
        # goldens against the library: quad and solve print what the
        # exact layer computes
        goldens = state["goldens"]
        for name, argv, _ in state["mix"]:
            code, out, err, _ = goldens[name]
            tally.check(code in (0, 1) and not (code == 0 and err), f"golden {name}: exit {code} {err!r}")
            if name == "quad":
                family = from_spinor_pair(Spinor.parse(argv[2]), Spinor.parse(argv[4]))
                a, b, c = family.shared_curvatures
                tally.check(out.startswith(f"A={a} B={b} C={c} D1={family.d1} D2={family.d2}"), "golden quad")
            if name == "solve_exact":
                tally.check(out.endswith("(exact)\n"), "golden solve_exact is not exact")
            if name == "solve_exact_json":
                tally.check(json.loads(out)["exact"] is True, "golden solve_exact_json is not exact")
            if name == "solve_inexact":
                tally.check(out.endswith("(inexact)\n"), "golden solve_inexact is exact")

    def items(self, state: dict) -> list:
        return state["mix"]

    def request(self, entry: tuple, state: dict, tracer, tally: Tally, meter: Meter) -> int:
        name, argv, writes_svg = entry
        if writes_svg and state["svg"].exists():
            state["svg"].unlink()
        command = [sys.executable, "-m", "spintile.cli", *argv]
        with tracer.span("cli_invocations.request"), meter.timed():
            # no timeout: with one, the wait polls with growing sleeps,
            # which rounds the measured time up by up to 50 ms
            done = subprocess.run(command, cwd=state["workdir"], env=state["env"], capture_output=True, text=True)
        code, out, err, svg = state["goldens"][name]
        ok = (done.returncode, done.stdout, done.stderr) == (code, out, err)
        if writes_svg:
            ok = ok and state["svg"].exists() and state["svg"].read_bytes() == svg
        tally.check(ok, f"{name}: exit {done.returncode}, output differs from the golden")
        tally.failed += not ok
        return 1

    def _child_ms(self, state: dict, code: str) -> float:
        times = []
        for _ in range(self.samples):
            start = perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=state["workdir"], env=state["env"], check=True)
            times.append(perf_counter() - start)
        return 1000 * statistics.median(times)

    def probe(self, state: dict, layer: dict, passes: int) -> dict:
        """Import cost and in-process ``cli.run`` time per subcommand;
        the cli layer's self time per pass is the package import plus
        ``cli.run`` of every invocation in the mix."""
        interpreter_ms = self._child_ms(state, "pass")
        import_ms = self._child_ms(state, "import spintile.cli")
        by_command: dict[str, list[float]] = {}
        for _, argv, _ in state["mix"]:
            times = []
            for _ in range(5):
                start = perf_counter()
                run_in_process(argv)
                times.append(perf_counter() - start)
            by_command.setdefault(argv[0], []).append(1000 * statistics.median(times))
        metrics = {"cli.interpreter_ms": interpreter_ms, "cli.import_ms": import_ms}
        for command, run_ms in by_command.items():
            metrics[f"cli.run_{command}_ms"] = statistics.median(run_ms)
        calls = len(state["mix"])
        cli_ms = sum(map(sum, by_command.values())) + calls * (import_ms - interpreter_ms)
        requests_s = layer["requests_s"] / passes
        metrics["cli.self_s"] = cli_ms / 1000
        metrics["cli.share"] = cli_ms / 1000 / requests_s
        return metrics


WORKLOADS = {
    workload.name: workload
    for workload in (EnumerateStream(), EnumerateShards(), TessPairs(), VerifyQuadruples(), CliInvocations())
}
