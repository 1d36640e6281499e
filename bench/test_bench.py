"""Tests of the benchmark's own code: input generators, spans, the
compare verdicts, and the metric catalogue against BENCHMARK.json."""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import compare  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from meter import UNMETERED, Meter  # noqa: E402
from spintile import ZeroCurvature  # noqa: E402


def test_generators_repeat_under_a_seed_and_differ_across_seeds():
    for generate in (inputs.tess_pairs, inputs.verify_quadruples, inputs.cli_mix):
        assert generate(7) == generate(7)
        assert generate(7) != generate(8)


def test_tess_pairs_mix_is_stratified():
    pairs = inputs.tess_pairs(3)
    kinds = [kind for kind, _, _ in pairs]
    assert kinds.count("small") == inputs.TESS_SMALL
    assert kinds.count("large") == inputs.TESS_LARGE
    assert kinds.count("rational") == inputs.TESS_RATIONAL
    positive = 0
    for kind, a_text, b_text in pairs:
        a = tuple(Fraction(v) for v in a_text.split(","))
        b = tuple(Fraction(v) for v in b_text.split(","))
        assert a[0] * b[1] - b[0] * a[1] != 0
        positive += kind == "small" and inputs.fully_positive(a, b)
    assert positive == inputs.TESS_SMALL // 2


def test_verify_quadruples_are_one_set_that_the_seed_orders():
    assert sorted(inputs.verify_quadruples(5)) == sorted(inputs.verify_quadruples(6))


def test_verify_quadruples_are_genuine_and_placeable():
    quadruples = inputs.verify_quadruples(5)
    kinds = {kind for kind, _ in quadruples}
    assert kinds == {"small", "large", "scaled"}
    for _, quadruple in quadruples:
        assert inputs.descartes_residual(quadruple) == 0
        assert inputs.placeable(quadruple)


def test_requests_pass_their_output_checks():
    tally = workloads.Tally()
    tess = workloads.WORKLOADS["tess_pairs"]
    verify = workloads.WORKLOADS["verify_quadruples"]
    tess_state = {"requests": []}
    for kind, a_text, b_text in inputs.tess_pairs(1)[:12]:
        a = tuple(Fraction(v) for v in a_text.split(","))
        b = tuple(Fraction(v) for v in b_text.split(","))
        pick = kind == "small" and inputs.fully_positive(a, b)
        tess_state["requests"].append((a_text, b_text, inputs.family(a, b), pick))
    for item in tess_state["requests"]:
        tess.request(item, tess_state, spans.NULL, tally, UNMETERED)
    assert tally.failed == 0
    for item in inputs.verify_quadruples(1)[:12]:
        verify.request(item, {}, spans.Tracer(), tally, UNMETERED)
    assert tally.mismatches == []


class _Raising:
    """A workload whose requests raise a typed, an untyped, and no error."""

    def items(self, state):
        return [ZeroCurvature("line"), ValueError("bad"), None]

    def request(self, item, state, tracer, tally, meter):
        with meter.timed():
            if item is not None:
                raise item
        return 1


def test_runner_counts_typed_and_untyped_failures_apart():
    tally = workloads.Tally()
    outcomes = []
    passes = run._run_passes(_Raising(), {}, spans.NULL, tally, Meter(), 0, outcomes)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert outcomes == [True, True, False]
    assert tally.counters["typed_errors.ZeroCurvature"] == 1
    assert tally.counters["untyped_errors.ValueError"] == 1
    durations, work = passes[0]
    assert len(durations) == 3 and work == 1


def test_runner_counts_one_pass_and_checks_the_repeats():
    tally = workloads.Tally()
    outcomes = []
    run._run_passes(_Raising(), {}, spans.NULL, tally, Meter(), 0, outcomes)
    run._run_passes(_Raising(), {}, spans.NULL, tally, Meter(), 0, outcomes)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.mismatches == []
    # a repeat that fails other requests than the first pass is a mismatch
    outcomes[:] = [False, True, False]
    run._run_passes(_Raising(), {}, spans.NULL, tally, Meter(), 0, outcomes)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert len(tally.mismatches) == 1


def test_span_self_time_subtracts_direct_children():
    tracer = spans.Tracer()
    tracer.spans = [
        ("w.request", 0.0, 10.0, -1),
        ("disks.place", 1.0, 4.0, 0),
        ("svg.render", 5.0, 6.0, 0),
        ("w.request", 10.0, 12.0, -1),
    ]
    summary = tracer.summary()
    assert summary["requests_s"] == 12.0
    assert summary["names"]["w.request"] == {"count": 2, "total_s": 12.0, "self_s": 8.0}
    assert summary["names"]["disks.place"]["self_s"] == 3.0


def _verdict(a, b, better="higher", bound=0.1):
    pairs = list(zip(a, b))
    return compare.verdict(a, b, pairs, better, bound)[0]


def test_compare_verdicts_on_synthetic_runs():
    steady = [100 + 0.5 * i for i in range(10)]
    assert _verdict(steady, [v * 1.2 for v in steady]) == "improved"
    assert _verdict(steady, [v * 0.8 for v in steady], better="lower") == "improved"
    assert _verdict(steady, [v * 0.99 for v in steady]) == "no worse"
    assert _verdict(steady, [v * 0.7 for v in steady]) == "worse"
    assert _verdict(steady, [v * 1.3 for v in steady], better="lower") == "worse"
    noisy = [50, 150, 60, 140, 70, 130, 80, 120, 90, 110]
    assert _verdict(noisy, list(reversed(noisy))) == "unresolved"
    # wide parent spread, but every run of the change is better
    wide = [1, 1, 1, 1, 10, 10, 10, 10]
    assert _verdict(wide, [10.5] * 8) == "no worse"
    assert _verdict(steady, [v * 1.2 for v in steady], bound=None) == "improved"
    assert _verdict(steady, steady, bound=None) == "unresolved"


def test_metric_catalogue_matches_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run._unit(m["name"]) for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
