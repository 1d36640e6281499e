"""The acceptance gate: one test per shipped guarantee.

Each test wraps its checks in the ``criterion`` recorder, so the run ends
with a PASS/FAIL line per criterion in the terminal summary.  Numeric
checks run at the tolerances stated here; exact checks compare integers
and fractions with ``==``.
"""

from __future__ import annotations

import io
import json
import random
from fractions import Fraction

from spintile import (
    EnumerationJob,
    Shard,
    Spinor,
    build_tessellation,
    cross,
    descartes_residual,
    dot,
    enumerate_records,
    euclid_square,
    from_spinor_pair,
    merge_shards,
    midcircle_through_tangencies,
    norm_sq,
    place_configuration,
    realize_fourth,
    render_configuration,
    render_tessellation,
    star,
    summarize,
    tile_area_pick,
    tile_area_shoelace,
    verify_spinor_laws,
    write_records,
)
from spintile.cli import run
from spintile.enumeration import write_stream

from conftest import expected_record_count

TOLERANCE = 1e-9


def test_criterion_1_figure_pair_numbers(criterion, capsys):
    with criterion(1, "figure pair 3,0 / -1,2 reproduces every reported number exactly"):
        assert run(["tess", "--a", "3,0", "--b", "-1,2", "--json"]) == 0
        report = json.loads(capsys.readouterr().out)["report"]
        assert report["square_areas"] == ["9", "5", "8"]
        assert report["red_areas"] == ["2", "6", "3"]
        assert report["green_area"] == "6"
        assert report["light_red_areas"] == ["2", "6", "3"]
        assert report["curvature_D"] == "23"
        assert report["curvature_Dprime"] == "-1"
        assert report["midcircle_ABC"] == "6"
        assert report["midcircles_with_D"] == ["15", "11", "14"]
        assert report["midcircles_with_Dprime"] == ["3", "-1", "2"]
        assert report["descartes_residual_D"] == "0"
        assert report["descartes_residual_Dprime"] == "0"

        assert run(["tess", "--a", "3,0", "--b", "-1,2"]) == 0
        human = capsys.readouterr().out
        assert "butterflies 23 23 23" in human
        assert "square + opposite red constant: 11" in human
        assert human.count(": ok") == 5
        assert "overlap: no" in human


def test_criterion_2_circle_identity_everywhere(criterion):
    with criterion(2, "bound-3 stream and 100000 random pairs satisfy the identity"):
        count = 0
        for record in enumerate_records(EnumerationJob(bound=3)):
            assert descartes_residual(record.a, record.b, record.c, record.d1) == 0
            assert descartes_residual(record.a, record.b, record.c, record.d2) == 0
            count += 1
        assert count == expected_record_count(3) == 2304

        rng = random.Random(0x5EED2)
        for _ in range(100_000):
            a = Spinor(rng.randint(-50, 50), rng.randint(-50, 50))
            b = Spinor(rng.randint(-50, 50), rng.randint(-50, 50))
            family = from_spinor_pair(a, b)
            big_a, big_b, big_c = family.shared_curvatures
            assert descartes_residual(big_a, big_b, big_c, family.d1) == 0
            assert descartes_residual(big_a, big_b, big_c, family.d2) == 0


def test_criterion_3_known_quadruples(criterion):
    with criterion(3, "known quadruples have residual exactly zero"):
        for quadruple in (
            (2, 3, 6, 23),
            (2, 3, 6, -1),
            (2, 2, 3, 15),
            (3, 14, 6, 47),
            (11, 14, 23, 102),
        ):
            assert descartes_residual(*quadruple) == 0


def test_criterion_4_dual_route_agreement(criterion):
    with criterion(4, "10000 random pairs: tessellation and quadruple builder agree"):
        rng = random.Random(0x5EED4)
        checked = 0
        while checked < 10_000:
            a = Spinor(rng.randint(-20, 20), rng.randint(-20, 20))
            b = Spinor(rng.randint(-20, 20), rng.randint(-20, 20))
            if cross(a, b) == 0:
                continue  # layouts need an oriented pair; builders agree trivially
            report = summarize(build_tessellation(a, b))
            family = from_spinor_pair(a, b)
            assert report.red_areas == family.shared_curvatures
            assert report.square_areas == (norm_sq(a), norm_sq(b), norm_sq(a + b))
            assert {report.curvature_d, report.curvature_d_prime} == {
                family.d1,
                family.d2,
            }
            assert report.curvature_d - report.curvature_d_prime == 4 * cross(a, b)
            checked += 1


def test_criterion_5_three_area_routes(criterion):
    with criterion(5, "1000 positive layouts: Pick, shoelace, cross-product agree"):
        rng = random.Random(0x5EED5)
        checked = 0
        while checked < 1_000:
            a = Spinor(rng.randint(-4, 4), rng.randint(-4, 4))
            b = Spinor(rng.randint(-4, 4), rng.randint(-4, 4))
            ab = dot(a, b)
            if (
                cross(a, b) <= 0
                or norm_sq(b) + ab <= 0
                or norm_sq(a) + ab <= 0
                or -ab <= 0
            ):
                continue  # keep only layouts where all fifteen tiles are positive
            tess = build_tessellation(a, b)
            assert not tess.has_overlap
            for tile in tess.tiles:
                area = tile.signed_area
                assert tile_area_shoelace(tile) == area
                assert tile_area_pick(tile) == area
            checked += 1


def test_criterion_6_all_positive_primitive_families_realize(criterion):
    with criterion(6, "positive primitive bound-3 families pass all six laws at 1e-9"):
        targets = set()
        for record in enumerate_records(EnumerationJob(bound=3)):
            if record.primitive and min(record.a, record.b, record.c) > 0:
                triple = tuple(sorted((record.a, record.b, record.c)))
                targets.add((triple, record.d1))
                targets.add((triple, record.d2))
        assert len(targets) == 24
        assert sum(1 for _, root in targets if root == 0) == 2

        realized = 0
        for triple, root in sorted(targets):
            if root == 0:
                continue  # curvature zero is a line, not a placeable disk
            placed = place_configuration(*triple)
            disks = placed + (realize_fourth(placed, root),)
            report = verify_spinor_laws(disks, TOLERANCE)
            assert report.passed, (triple, root, dict(report.law_residuals))
            realized += 1
        assert realized == 22


def test_criterion_7_midcircle_curvatures(criterion):
    with criterion(7, "realized (2,3,6,23) has sub-triple circles {6,11,14,15}"):
        placed = place_configuration(2, 3, 6)
        disks = placed + (realize_fourth(placed, 23),)
        curvatures = []
        for skip in range(4):
            triple = [disks[i] for i in range(4) if i != skip]
            curvatures.append(midcircle_through_tangencies(*triple).curvature)
        for got, expected in zip(sorted(curvatures), (6, 11, 14, 15)):
            assert abs(got - expected) <= TOLERANCE


def test_criterion_8_deterministic_artifacts(criterion, tmp_path):
    with criterion(8, "sharded enumeration and SVG rendering are byte-identical"):
        for fmt in ("csv", "jsonl"):
            first, second = io.StringIO(), io.StringIO()
            write_stream(enumerate_records(EnumerationJob(bound=2)), first, fmt)
            write_stream(enumerate_records(EnumerationJob(bound=2)), second, fmt)
            assert first.getvalue() == second.getvalue()

            reference = str(tmp_path / f"whole.{fmt}")
            write_records(enumerate_records(EnumerationJob(bound=2)), reference, fmt)
            shard_paths = []
            for i in range(3):
                path = str(tmp_path / f"shard{i}.{fmt}")
                job = EnumerationJob(bound=2, shard=Shard(i, 3))
                write_records(enumerate_records(job), path, fmt)
                shard_paths.append(path)
            merged = str(tmp_path / f"merged.{fmt}")
            merge_shards(shard_paths, merged, fmt)
            with open(reference, "rb") as ref, open(merged, "rb") as got:
                assert got.read() == ref.read()

        tess = build_tessellation(Spinor(3, 0), Spinor(-1, 2))
        assert render_tessellation(tess) == render_tessellation(
            build_tessellation(Spinor(3, 0), Spinor(-1, 2))
        )
        placed = place_configuration(2, 3, 6)
        disks = placed + (realize_fourth(placed, 23),)
        assert render_configuration(disks) == render_configuration(disks)


def test_criterion_9_exact_spinor_identities(criterion):
    with criterion(9, "10000 random rational spinors satisfy the exact identities"):
        rng = random.Random(0x5EED9)

        def rational() -> Fraction:
            return Fraction(rng.randint(-1000, 1000), rng.randint(1, 1000))

        for _ in range(10_000):
            u = Spinor(rational(), rational())
            v = Spinor(rational(), rational())
            assert cross(u, v) == dot(star(u), v)
            assert star(star(u)) == -u
            assert dot(star(u), star(v)) == dot(u, v)
            assert cross(star(u), star(v)) == cross(u, v)
            assert dot(u, v) == cross(u, star(v))
            assert cross(star(u), v) == cross(star(v), u)
            assert cross(u, u) == 0
            assert dot(u, star(u)) == 0
            squared = euclid_square(u)
            assert squared.c == norm_sq(u)
            assert euclid_square(-u) == squared
