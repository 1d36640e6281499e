"""Systematic sweep over generator pairs: counts, formats, shards."""

from __future__ import annotations

import collections
import collections.abc
import hashlib
import io
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintile import (
    CSV_HEADER,
    EnumerationJob,
    Shard,
    descartes_residual,
    enumerate_records,
    merge_shards,
    read_records,
    write_records,
)
from spintile import enumeration
from spintile.enumeration import (
    FORMATS,
    QuadrupleRecord,
    _cut,
    _fields,
    _line_grammar,
    _tail,
    write_stream,
)
from spintile.cli import run

from conftest import expected_record_count

CSV, JSONL = FORMATS["csv"].template, FORMATS["jsonl"].template


def _record(a: tuple[int, int, int], b: tuple[int, int, int]) -> QuadrupleRecord:
    """The record of the pair of lattice points ``a`` and ``b``."""
    return QuadrupleRecord(a[0], a[1], b[0], b[1], *_tail(a, b))


def _line(template: str, record: QuadrupleRecord) -> str:
    """The record written into a format's line template."""
    return template % _fields(record)


def brute_force_primitives(limit: int) -> set[tuple[int, int, int, int]]:
    """Primitive sorted quadruples with entries in [-limit, limit].

    Direct search, independent of the spinor stream: walk sorted triples,
    solve the circle identity for the largest entry, keep perfect-square
    discriminants.  Any sorted integer quadruple (w, x, y, z) shows up
    because its largest entry is a root over the remaining three.
    """
    found = set()
    for a in range(-limit, limit + 1):
        for b in range(a, limit + 1):
            for c in range(b, limit + 1):
                disc = a * b + b * c + c * a
                if disc < 0:
                    continue
                root = math.isqrt(disc)
                if root * root != disc:
                    continue
                for d in (a + b + c + 2 * root, a + b + c - 2 * root):
                    if d < c or d > limit:
                        continue
                    entries = (a, b, c, d)
                    if math.gcd(*(abs(v) for v in entries)) == 1:
                        found.add(entries)
    return found


def orbit_key(record: QuadrupleRecord) -> tuple[int, int, int, int]:
    """(|a|², |b|², a·b, |a×b|) of the record's generators."""
    m1, n1, m2, n2 = record.generator_key()
    return (m1 * m1 + n1 * n1, m2 * m2 + n2 * n2, m1 * m2 + n1 * n2, abs(m1 * n2 - m2 * n1))


def oracle_rows(bound: int, count: int, include_zero: bool = False) -> list[set[int]]:
    """The |a|² rows of each of ``count`` shards, by the rule read plainly:
    the distinct norms of the box by descending point count, then by
    ascending norm, each to the shard with the least load in points so
    far, the lowest index winning a tie."""
    span = range(-bound, bound + 1)
    sizes = collections.Counter(m * m + n * n for m in span for n in span if include_zero or m or n)
    loads = [0] * count
    rows: list[set[int]] = [set() for _ in range(count)]
    for norm in sorted(sizes, key=lambda norm: (-sizes[norm], norm)):
        shard = min(range(count), key=lambda index: (loads[index], index))
        loads[shard] += sizes[norm]
        rows[shard].add(norm)
    return rows


def row_norm(record: QuadrupleRecord) -> int:
    """|a|² of the record's first spinor: the row that holds it."""
    return record.m1 * record.m1 + record.n1 * record.n1


def shard_records(
    bound: int, count: int, primitive_only: bool = False
) -> list[list[QuadrupleRecord]]:
    return [
        list(
            enumerate_records(
                EnumerationJob(bound=bound, primitive_only=primitive_only, shard=Shard(i, count))
            )
        )
        for i in range(count)
    ]


def assert_row_partition(bound: int, count: int, primitive_only: bool = False) -> None:
    """Shard K of ``count`` holds exactly the records of the unsharded
    stream whose |a|² the oracle gives K, in stream order."""
    whole = list(enumerate_records(EnumerationJob(bound=bound, primitive_only=primitive_only)))
    rows = oracle_rows(bound, count)
    pieces = shard_records(bound, count, primitive_only)
    assert [[r for r in whole if row_norm(r) in own] for own in rows] == pieces


class TestJobValidation:
    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            EnumerationJob(bound=0)

    def test_format_must_be_known(self):
        with pytest.raises(ValueError):
            EnumerationJob(bound=1, output_format="xml")

    def test_every_entry_point_refuses_an_unknown_format(self, tmp_path):
        path = str(tmp_path / "records.csv")
        write_records(enumerate_records(EnumerationJob(bound=1)), path, "csv")
        refusals = [
            lambda: EnumerationJob(bound=1, output_format="xml"),
            lambda: write_stream([], io.StringIO(), "xml"),
            lambda: read_records(path, "xml"),
            lambda: merge_shards([path], str(tmp_path / "merged.xml"), "xml"),
        ]
        for refuse in refusals:
            with pytest.raises(ValueError, match="^unknown output format 'xml'$"):
                refuse()

    @pytest.mark.parametrize(
        "make",
        [
            lambda: Shard(0.5, 2),
            lambda: Shard(1.0, 2),
            lambda: Shard(0, 2.0),
            lambda: Shard(True, 2),
            lambda: EnumerationJob(bound=2.5),
            lambda: EnumerationJob(bound=2.0),
            lambda: EnumerationJob(bound=True),
            lambda: EnumerationJob(bound=1, primitive_only="false"),
            lambda: EnumerationJob(bound=1, include_zero=1),
        ],
        ids=["index-0.5", "index-1.0", "count-2.0", "index-True", "bound-2.5", "bound-2.0",
             "bound-True", "primitive_only-str", "include_zero-1"],
    )
    def test_shard_and_bound_must_be_ints(self, make):
        # a float index such as 0.5 is the index of no shard, so it would
        # silently select no records; the filters must be bools, since
        # a truthy "false" would keep only the 48 primitive records of 64
        with pytest.raises(ValueError):
            make()

    @pytest.mark.parametrize("shard", [(0, 1), None, "0/1"])
    def test_shard_must_be_a_shard(self, shard):
        # a pair or None used to fail deep inside the walk, untyped
        with pytest.raises(ValueError, match=f"^shard must be a Shard, got {re.escape(repr(shard))}$"):
            EnumerationJob(bound=2, shard=shard)

    def test_shard_must_be_consistent(self):
        with pytest.raises(ValueError):
            Shard(index=3, count=3)
        with pytest.raises(ValueError):
            Shard(index=-1, count=2)
        with pytest.raises(ValueError):
            Shard(index=0, count=0)


class TestStream:
    def test_count_matches_closed_form(self):
        for bound in (1, 2):
            records = list(enumerate_records(EnumerationJob(bound=bound)))
            assert len(records) == expected_record_count(bound)
        assert expected_record_count(1) == 64
        assert expected_record_count(3) == 2304
        assert expected_record_count(1, include_zero=True) == 81

    def test_figure_pair_record(self):
        record = _record((3, 0, 9), (-1, 2, 5))
        assert (record.a, record.b, record.c) == (2, 6, 3)
        assert (record.d1, record.d2) == (23, -1)
        assert record.canonical == (2, 3, 6, 23)
        assert record.primitive

    def test_both_roots_satisfy_the_identity(self):
        for record in enumerate_records(EnumerationJob(bound=2)):
            assert descartes_residual(record.a, record.b, record.c, record.d1) == 0
            assert descartes_residual(record.a, record.b, record.c, record.d2) == 0

    def test_stream_is_lexicographic_in_generators(self):
        keys = [r.generator_key() for r in enumerate_records(EnumerationJob(bound=1))]
        assert keys == sorted(keys)

    def test_include_zero_adds_degenerate_pairs(self):
        records = list(enumerate_records(EnumerationJob(bound=1, include_zero=True)))
        assert len(records) == 81
        zero_record = next(r for r in records if r.generator_key() == (0, 0, 0, 0))
        assert zero_record.canonical == (0, 0, 0, 0)
        assert not zero_record.primitive

    def test_a_zero_spinor_gives_the_strip_quadruple(self):
        # (a, 0) gives (0, |a|², 0, |a|²) and (0, b) gives (|b|², 0, 0, |b|²)
        seen = collections.Counter()
        for record in enumerate_records(EnumerationJob(bound=3, include_zero=True)):
            zeros = ((record.m1, record.n1) == (0, 0)) + ((record.m2, record.n2) == (0, 0))
            if zeros:
                seen[zeros, record.canonical] += 1
        assert seen == {(1, (0, 0, 1, 1)): 2 * 48, (2, (0, 0, 0, 0)): 1}

    def test_records_hold_ints(self):
        for record in enumerate_records(EnumerationJob(bound=2, include_zero=True)):
            *values, canonical, _ = record
            assert all(type(v) is int for v in (*values, *canonical))

    def test_primitive_only_filters(self):
        everything = list(enumerate_records(EnumerationJob(bound=2)))
        primitive = list(enumerate_records(EnumerationJob(bound=2, primitive_only=True)))
        assert all(r.primitive for r in primitive)
        assert primitive == [r for r in everything if r.primitive]
        assert len(primitive) < len(everything)


class TestCanonicalForms:
    def test_bound_1_canonical_set_frozen(self):
        canonicals = {record.canonical for record in enumerate_records(EnumerationJob(bound=1))}
        assert sorted(canonicals, key=lambda c: (sum(c), c)) == [
            (0, 0, 1, 1),
            (-1, 2, 2, 3),
            (0, 1, 1, 4),
            (-1, 2, 3, 6),
        ]

    def test_bound_2_primitives_against_brute_force(self):
        records = list(enumerate_records(EnumerationJob(bound=2)))
        stream_canonicals = {r.canonical for r in records if r.primitive}
        assert len(stream_canonicals) == 20
        assert max(abs(v) for c in stream_canonicals for v in c) <= 50
        assert stream_canonicals <= brute_force_primitives(50)

    def test_brute_force_size_frozen(self):
        assert len(brute_force_primitives(50)) == 298


class TestFormats:
    def test_csv_line_frozen(self):
        record = _record((-2, -2, 8), (-2, -2, 8))
        assert _line(CSV, record) == "-2,-2,-2,-2,16,16,-8,24,24,-1:2:2:3,false"

    def test_json_line_frozen(self):
        record = _record((3, 0, 9), (-1, 2, 5))
        assert _line(JSONL, record) == (
            '{"m1":3,"n1":0,"m2":-1,"n2":2,"A":2,"B":6,"C":3,"D1":23,"D2":-1,'
            '"canonical":[2,3,6,23],"primitive":true}'
        )

    def test_json_line_matches_json_dumps(self):
        job = EnumerationJob(bound=2, include_zero=True)
        for record in enumerate_records(job):
            payload = dict(zip(("m1", "n1", "m2", "n2", "A", "B", "C", "D1", "D2"), record[:9]))
            payload["canonical"] = list(record.canonical)
            payload["primitive"] = record.primitive
            assert _line(JSONL, record) == json.dumps(payload, separators=(",", ":"))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_every_written_line_matches_its_grammar(self, fmt, tmp_path):
        records = list(enumerate_records(EnumerationJob(bound=2, include_zero=True)))
        grammar = _line_grammar(fmt)
        for record in records:
            found = grammar.fullmatch(_line(FORMATS[fmt].template, record) + "\n")
            assert found is not None
            assert tuple(map(int, found.group(1, 2, 3, 4))) == record.generator_key()
        path = str(tmp_path / f"records.{fmt}")
        write_records(records, path, fmt)
        assert read_records(path, fmt) == records

    @given(
        values=st.lists(st.integers(-(10**12), 10**12), min_size=13, max_size=13),
        primitive=st.booleans(),
    )
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_the_cut_template_writes_the_line(self, fmt, values, primitive):
        record = QuadrupleRecord(*values[:9], tuple(values[9:]), primitive)
        template = FORMATS[fmt].template
        head, tail = _cut(template)
        line = _line(template, record)
        assert head % record[:4] + tail % _fields(record)[4:] == line
        # the line view cuts the head once more, after its second comma
        first, second = _cut(head, 2)
        assert first % record[:2] + second % record[2:4] == head % record[:4]
        # and str.split cuts the line where the template is cut
        *pieces, rest = line.split(",", 4)
        assert (",".join(pieces) + ",", rest) == (head % record[:4], tail % _fields(record)[4:])

    def test_zero_record_csv_line_frozen(self):
        assert _line(CSV, _record((0, 0, 0), (0, 0, 0))) == "0,0,0,0,0,0,0,0,0,0:0:0:0,false"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_large_and_zero_entries_round_trip(self, fmt, tmp_path):
        big = 10**30
        # 18 records with distinct generators, in stream order
        records = sorted(
            QuadrupleRecord(m1, n1, m2, n2, m1, -n1, 0, big, -big, (-big, 0, 0, big), n1 == 0)
            for m1 in (-big, 0, big)
            for n1 in (-big, 0, big)
            for m2, n2 in ((0, 0), (big, -big))
        )
        whole = tmp_path / f"whole.{fmt}"
        assert write_records(records, str(whole), fmt) == len(records)
        assert read_records(str(whole), fmt) == records
        # records dealt round-robin into files written from lists: each
        # reads back, and no manifest is written, so the merge refuses them
        shards = [str(tmp_path / f"shard{k}.{fmt}") for k in range(3)]
        for k, path in enumerate(shards):
            assert write_records(records[k::3], path, fmt) == 6
            assert read_records(path, fmt) == records[k::3]
        message = assert_refused(shards, fmt, shards[0])
        assert message.endswith("rewrite it with enumerate --shard K/N --out F")

    def test_csv_header_frozen(self):
        assert CSV_HEADER == "m1,n1,m2,n2,A,B,C,D1,D2,canonical,primitive"

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_write_read_round_trip(self, fmt, tmp_path):
        records = list(enumerate_records(EnumerationJob(bound=1)))
        path = str(tmp_path / f"records.{fmt}")
        count = write_records(records, path, fmt)
        assert count == 64
        assert read_records(path, fmt) == records

    def test_read_rejects_missing_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            read_records(str(path), "csv")

    def test_write_stream_returns_count(self, tmp_path):
        records = list(enumerate_records(EnumerationJob(bound=1)))
        path = tmp_path / "stream.jsonl"
        with open(path, "w") as handle:
            assert write_stream(records, handle, "jsonl") == 64
        assert len(path.read_text().splitlines()) == 64
        # a stream and its drained list alike go out one write a row: the
        # header's, then one for each of bound 3's 48 first spinors
        job = EnumerationJob(bound=3)
        records = list(enumerate_records(job))
        for fmt in FORMATS:
            for given in (records, enumerate_records(job)):
                texts = []
                handle = SimpleNamespace(write=lambda text: texts.append(text) or len(text))
                assert write_stream(given, handle, fmt) == len(records) == 2304
                assert len(texts) == bool(FORMATS[fmt].header) + 48, (fmt, type(given))
                assert "".join(texts) == with_header(oracle_lines(records, fmt), fmt)


class TestAtomicWrites:
    def test_rename_onto_a_directory_names_it(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        assert run(["enumerate", "--bound", "1", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.endswith(f": {str(target)!r}\n")
        shards = write_shards(tmp_path, 1, 2, "csv")
        with pytest.raises(OSError) as caught:
            merge_shards(shards, str(target), "csv")
        assert caught.value.filename == str(target)
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["taken", "shard0.csv", "shard0.csv.json", "shard1.csv", "shard1.csv.json"]
        )
        assert os.listdir(target) == []

    def test_failure_leaves_no_partial_file(self, tmp_path):
        target = tmp_path / "out.csv"

        def exploding():
            yield _record((1, 0, 1), (0, 1, 1))
            raise RuntimeError("midway")

        with pytest.raises(RuntimeError):
            write_records(exploding(), str(target), "csv")
        assert not target.exists()
        assert os.listdir(tmp_path) == []

    def test_success_replaces_existing_file(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_text("stale\n")
        write_records(enumerate_records(EnumerationJob(bound=1)), str(target), "csv")
        content = target.read_text()
        assert content.startswith(CSV_HEADER)
        assert "stale" not in content

    def test_unwritable_directory_names_the_requested_path(self, tmp_path):
        shards = write_shards(tmp_path, 1, 2, "csv")
        target = str(tmp_path / "missing" / "merged.csv")
        for write in (
            lambda: write_records(enumerate_records(EnumerationJob(bound=1)), target, "csv"),
            lambda: write_records(
                enumerate_records(EnumerationJob(bound=1, shard=Shard(0, 2))), target, "csv"
            ),
            lambda: merge_shards(shards, target, "csv"),
        ):
            with pytest.raises(FileNotFoundError) as caught:
                write()
            assert caught.value.filename == target


def assert_refused(paths: list[str], fmt: str, named: str, match: str = "") -> str:
    """Merging ``paths`` raises ``ValueError`` naming the file ``named``
    and holding ``match``, and leaves no merged and no partial file
    behind; returns the message."""
    directory = os.path.dirname(paths[0])
    before = sorted(os.listdir(directory))
    assert f"merged.{fmt}" not in before
    with pytest.raises(ValueError) as caught:
        merge_shards(paths, os.path.join(directory, f"merged.{fmt}"), fmt)
    message = str(caught.value)
    assert named in message and match in message, message
    assert sorted(os.listdir(directory)) == before
    return message


def write_shards(
    directory,
    bound: int,
    count: int,
    fmt: str,
    include_zero: bool = False,
    primitive_only: bool = False,
) -> list[str]:
    paths = []
    for i in range(count):
        path = str(directory / f"shard{i}.{fmt}")
        job = EnumerationJob(
            bound=bound,
            primitive_only=primitive_only,
            shard=Shard(i, count),
            output_format=fmt,
            include_zero=include_zero,
        )
        write_records(enumerate_records(job), path, fmt)
        paths.append(path)
    return paths


class TestSharding:
    def test_shards_partition_the_stream(self):
        assert_row_partition(bound=1, count=3)
        assert_row_partition(bound=3, count=4)
        assert_row_partition(bound=3, count=4, primitive_only=True)

    def test_primitive_shards_filter_the_unfiltered_shards(self):
        # shard K of a primitive job is shard K of the unfiltered job with
        # its non-primitive records left out: the filter moves no row
        for bound, count in ((2, 3), (4, 4), (5, 7)):
            filtered = shard_records(bound, count, primitive_only=True)
            unfiltered = shard_records(bound, count)
            assert filtered == [[r for r in piece if r.primitive] for piece in unfiltered]

    @pytest.mark.parametrize("bound", range(1, 7))
    def test_the_shards_build_each_tail_once_between_them(self, monkeypatch, bound):
        # each first-spinor orbit has its |a|² in one shard only, so the
        # shards of a job run the kernel as often as the unsharded job does
        calls = 0
        build = enumeration._tail

        def counted(a, b):
            nonlocal calls
            calls += 1
            return build(a, b)

        monkeypatch.setattr(enumeration, "_tail", counted)
        for primitive_only in (False, True):
            runs = []
            for count in range(1, 9):
                calls = 0
                shard_records(bound, count, primitive_only)
                runs.append(calls)
            assert runs == [runs[0]] * 8, (bound, primitive_only)

    def test_a_count_past_the_rows_returns_at_once(self):
        # bound 2 has five rows, so at any count past five shard 0 owns
        # the row of most points and the shards from the sixth on own
        # none; the walk never loops over the shards themselves
        whole = list(enumerate_records(EnumerationJob(bound=2)))
        first = oracle_rows(2, 6)[0]
        assert first == {5}
        for index, own in ((0, first), (10**12 - 1, set())):
            started = time.perf_counter()
            records = list(enumerate_records(EnumerationJob(bound=2, shard=Shard(index, 10**12))))
            assert time.perf_counter() - started < 1.0
            assert records == [r for r in whole if row_norm(r) in own]

    @pytest.mark.parametrize("primitive_only", [False, True])
    @pytest.mark.parametrize("bound", [6, 10])
    def test_the_largest_shard_stays_near_the_mean(self, bound, primitive_only):
        # rows are weighed by their points, which is their share of the
        # unfiltered stream; the primitive filter keeps fewer records of
        # some rows than of others (about half of an even |a|²), so its
        # shards spread wider: at bound 6 the largest holds 1.31 times the
        # mean at 5 shards and 1.375 times at 7
        job = EnumerationJob(bound=bound, primitive_only=primitive_only)
        per_row = collections.Counter(row_norm(r) for r in enumerate_records(job))
        total = sum(per_row.values())
        limit = 1.4 if primitive_only else 1.25
        span = range(-bound, bound + 1)
        points = [(m, n, m * m + n * n) for m in span for n in span if m or n]
        for count in range(2, 9):
            sizes = [
                sum(per_row[norm] for norm in enumeration._owned_norms(points, Shard(index, count)))
                for index in range(count)
            ]
            assert sum(sizes) == total
            assert max(sizes) * count <= limit * total, (count, sizes)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_merge_is_byte_identical_to_single_run(self, fmt, tmp_path):
        # 100 shards of the 64-record bound-1 stream leave most shards
        # empty: header-only csv files and empty jsonl files
        for bound, count, zero in ((2, 3, False), (1, 100, False), (2, 3, True)):
            reference = str(tmp_path / f"whole.{fmt}")
            job = EnumerationJob(bound=bound, include_zero=zero)
            write_records(enumerate_records(job), reference, fmt)
            shard_paths = write_shards(tmp_path, bound, count, fmt, include_zero=zero)
            merged = str(tmp_path / f"merged.{fmt}")
            assert merge_shards(shard_paths, merged, fmt) == expected_record_count(bound, zero)
            with open(reference, "rb") as ref, open(merged, "rb") as got:
                assert got.read() == ref.read()

    @pytest.mark.parametrize("include_zero", [False, True])
    @pytest.mark.parametrize("bound", range(1, 7))
    def test_every_merge_is_the_unsharded_file(self, bound, include_zero, tmp_path):
        for fmt in FORMATS:
            for primitive_only in (False, True):
                job = EnumerationJob(
                    bound=bound, primitive_only=primitive_only, include_zero=include_zero
                )
                reference = tmp_path / f"whole.{fmt}"
                count = write_records(enumerate_records(job), str(reference), fmt)
                for shards in range(1, 9):
                    directory = tmp_path / f"{fmt}-{primitive_only}-{shards}"
                    directory.mkdir()
                    paths = write_shards(directory, bound, shards, fmt, include_zero, primitive_only)
                    if shards == 1:
                        # an unsharded run writes no manifest
                        assert_refused(paths, fmt, paths[0], "has no manifest")
                        continue
                    merged = directory / f"merged.{fmt}"
                    assert merge_shards(paths, str(merged), fmt) == count
                    assert_same_text(merged.read_bytes(), reference.read_bytes(), (job, shards))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_merge_rejects_a_shard_out_of_stream_order(self, fmt, tmp_path):
        shard_paths = write_shards(tmp_path, 2, 3, fmt)
        with open(shard_paths[1]) as handle:
            lines = handle.readlines()
        lines[-2], lines[-1] = lines[-1], lines[-2]
        with open(shard_paths[1], "w") as handle:
            handle.writelines(lines)
        merged = tmp_path / f"merged.{fmt}"
        with pytest.raises(ValueError, match="shard1"):
            merge_shards(shard_paths, str(merged), fmt)
        assert not merged.exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_merge_refuses_blank_lines_that_read_skips(self, fmt, tmp_path):
        shard_paths = write_shards(tmp_path, 1, 2, fmt)
        records = read_records(shard_paths[1], fmt)
        with open(shard_paths[1]) as handle:
            lines = handle.readlines()
        for blank in (["\n"], [], []), ([], ["  \n"], []), ([], [], ["\n"]):
            with open(shard_paths[1], "w") as handle:
                handle.writelines([*blank[0], *lines[:3], *blank[1], *lines[3:], *blank[2]])
            assert read_records(shard_paths[1], fmt) == records
            assert_refused(shard_paths, fmt, shard_paths[1])

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_merge_rejects_a_shard_passed_twice(self, fmt, tmp_path):
        shard_paths = write_shards(tmp_path, 1, 3, fmt)
        merged = tmp_path / f"merged.{fmt}"
        with pytest.raises(ValueError, match="shard0"):
            merge_shards([shard_paths[0], *shard_paths], str(merged), fmt)
        assert not merged.exists()
        assert not [name for name in os.listdir(tmp_path) if name.endswith(".part")]

    def test_merge_rejects_shards_that_overlap(self, tmp_path):
        # each shard is in stream order, but one record is in both
        shard_paths = write_shards(tmp_path, 1, 2, "jsonl")
        first, second = (read_records(path, "jsonl") for path in shard_paths)
        write_records(sorted([*second, first[5]]), shard_paths[1], "jsonl")
        merged = tmp_path / "merged.jsonl"
        with pytest.raises(ValueError, match="shard1"):
            merge_shards(shard_paths, str(merged), "jsonl")
        assert not merged.exists()

    @pytest.mark.parametrize(
        "fmt, bad",
        [
            ("jsonl", '{"m1": 3, "n1": 0, "m2": -1, "n2": 2, "A": 2, "B": 6, "C": 3, '
             '"D1": 23, "D2": -1, "canonical": [2, 3, 6, 23], "primitive": true}'),
            ("jsonl", '{"m1":3,"n1":0,"m2":-1,"n2":2,"A":2,"B":6,"C":3,"D1":23,"D2":-1,'
             '"canonical":[2,3,6,23],"primitive":true,"extra":0}'),
            ("jsonl", '{"m1":3,"n1":0,"m2":-1,"n2":2,"A":2,"B":6,"C":3,"D1":23,"D2":-1,'
             '"canonical":[2,3,6,23],"primitive":1}'),
            ("jsonl", '{"m1":3,"n1":0,"m2":-1,"n2":2,"A":2,"B":6'),
            ("csv", "3,0,-1,2,2,6,3,23,-1,2:3:6:23"),
            ("csv", "3,0,-1,2,2,6,3,23,-01,2:3:6:23,true"),
        ],
        ids=["spaces", "extra-key", "primitive-1", "truncated", "ten-fields", "leading-zero"],
    )
    def test_merge_and_read_refuse_other_spellings(self, fmt, bad, tmp_path):
        shard_paths = write_shards(tmp_path, 1, 2, fmt)
        with open(shard_paths[1]) as handle:
            lines = handle.readlines()
        index = len(lines) // 2
        lines.insert(index, bad + "\n")
        with open(shard_paths[1], "w") as handle:
            handle.writelines(lines)
        assert_refused(shard_paths, fmt, shard_paths[1])
        with pytest.raises(ValueError, match=rf"shard1\.{fmt}, line {index + 1}:"):
            read_records(shard_paths[1], fmt)

    @pytest.mark.parametrize("primitive_only", [False, True])
    @pytest.mark.parametrize("count, index", [(1, 0), (3, 0), (3, 1), (3, 2)])
    def test_a_shard_builds_only_its_own_records(self, monkeypatch, primitive_only, count, index):
        # the kernel runs once for each orbit key among the shard's own
        # records (each |a|² of bound 2 has one first-spinor orbit), and
        # never for a pair of another shard
        calls = 0
        build = enumeration._tail

        def counted(a, b):
            nonlocal calls
            calls += 1
            return build(a, b)

        monkeypatch.setattr(enumeration, "_tail", counted)
        job = EnumerationJob(bound=2, primitive_only=primitive_only, shard=Shard(index, count))
        records = list(enumerate_records(job))
        assert records
        assert calls == len({orbit_key(record) for record in records}) < len(records)

    def test_sharded_primitive_filter_applies_before_slicing(self):
        whole = list(enumerate_records(EnumerationJob(bound=1, primitive_only=True)))
        pieces = []
        for i in range(2):
            job = EnumerationJob(bound=1, primitive_only=True, shard=Shard(i, 2))
            pieces.append(list(enumerate_records(job)))
        assert sorted(
            (r.generator_key() for piece in pieces for r in piece)
        ) == [r.generator_key() for r in whole]


def oracle_stream(bound: int, primitive_only: bool, include_zero: bool) -> list[QuadrupleRecord]:
    """The unsharded stream as a walk with no cache builds it: every pair
    through ``_record``, the filter read off the record's own flag."""
    span = range(-bound, bound + 1)
    points = [(m, n, m * m + n * n) for m in span for n in span if include_zero or m or n]
    records = (_record(a, b) for a in points for b in points)
    return [record for record in records if record.primitive or not primitive_only]


def oracle_lines(records: list[QuadrupleRecord], fmt: str) -> list[str]:
    """Each record's line as ``_line`` spells it."""
    template = FORMATS[fmt].template
    return [_line(template, record) + "\n" for record in records]


def with_header(lines: list[str], fmt: str) -> str:
    header = FORMATS[fmt].header
    return (header + "\n" if header else "") + "".join(lines)


def written(records, fmt: str) -> str:
    handle = io.StringIO()
    write_stream(records, handle, fmt)
    return handle.getvalue()


def assert_same_text(got: str | bytes, expected: str | bytes, what: object = "") -> None:
    """``got`` and ``expected`` hold the same bytes: their sha256 digests
    are compared, and a mismatch names the first line that differs.  An
    ``assert`` of two unequal outputs of megabytes would have pytest
    build their diff, for minutes."""
    got, expected = (text.encode() if isinstance(text, str) else text for text in (got, expected))
    if hashlib.sha256(got).digest() == hashlib.sha256(expected).digest():
        return
    got_lines, expected_lines = got.splitlines(keepends=True), expected.splitlines(keepends=True)
    pairs = itertools.zip_longest(got_lines, expected_lines, fillvalue=b"(no line)")
    number, (mine, theirs) = next((n, pair) for n, pair in enumerate(pairs, 1) if pair[0] != pair[1])
    pytest.fail(
        f"{what}: line {number} is {mine[:200]!r}, expected {theirs[:200]!r} "
        f"({len(got_lines)} lines, expected {len(expected_lines)})"
    )


def first_rows(job: EnumerationJob) -> collections.Counter:
    """The tails the walk makes for the job, counted by an oracle: in the
    first row (in stream order) of each first-spinor orbit the shard
    owns, one for each distinct (|b|², a·b, |a×b|) that the filter keeps,
    keyed by the first spinor and that triple."""
    span = range(-job.bound, job.bound + 1)
    points = [(m, n) for m in span for n in span if job.include_zero or m or n]
    own = oracle_rows(job.bound, job.shard.count, job.include_zero)[job.shard.index]
    made = collections.Counter()
    for m1, n1 in points:
        orbit = {(s * x, t * y) for x, y in ((m1, n1), (n1, m1)) for s in (1, -1) for t in (1, -1)}
        if m1 * m1 + n1 * n1 not in own or (m1, n1) != min(orbit):
            continue
        for m2, n2 in points:
            record = _record((m1, n1, m1 * m1 + n1 * n1), (m2, n2, m2 * m2 + n2 * n2))
            if record.primitive or not job.primitive_only:
                made[(m1, n1) + orbit_key(record)[1:]] = 1
    return made


class TestOrbitCaches:
    """The walk makes the items of each first-spinor orbit in its first
    row and permutes them into the rows of its other images; the bytes
    must be those of the oracle that builds every record afresh."""

    # "cap" runs the walk with all eight symmetries, the most rows it can
    # take by permutation; "past-cap" with the identity alone, so that
    # every row makes its own items afresh
    @pytest.mark.parametrize(
        "symmetries", [enumeration._SYMMETRIES, enumeration._SYMMETRIES[:1]], ids=["cap", "past-cap"]
    )
    @pytest.mark.parametrize(
        "bound, include_zero", [(1, False), (1, True), (2, False), (2, True), (3, False),
                                (3, True), (4, False), (6, False)]
    )
    def test_every_job_matches_the_oracle(self, monkeypatch, symmetries, bound, include_zero):
        monkeypatch.setattr(enumeration, "_SYMMETRIES", symmetries)
        for primitive_only in (False, True):
            stream = oracle_stream(bound, primitive_only, include_zero)
            for fmt in FORMATS:
                lines = oracle_lines(stream, fmt)
                for count in (1, 3, 4):
                    rows = oracle_rows(bound, count, include_zero)
                    for index in range(count):
                        job = EnumerationJob(
                            bound=bound,
                            primitive_only=primitive_only,
                            output_format=fmt,
                            shard=Shard(index, count),
                            include_zero=include_zero,
                        )
                        own = [line for line, r in zip(lines, stream) if row_norm(r) in rows[index]]
                        expected = with_header(own, fmt)
                        assert_same_text(written(enumerate_records(job), fmt), expected, job)

    def test_a_bound_past_the_cap_matches_the_oracle(self, tmp_path):
        # bound 6 has norms of two first-spinor orbits each, as (0, 5)
        # and (3, 4) of |a|² 25: each orbit makes its own first row
        job = EnumerationJob(bound=6)
        path = tmp_path / "records.csv"
        assert write_records(enumerate_records(job), str(path), "csv") == 28224
        assert_same_text(path.read_text(), with_header(oracle_lines(oracle_stream(6, False, False), "csv"), "csv"))

    @pytest.mark.parametrize("bound", [2, 3])
    def test_each_orbit_makes_its_first_row_alone(self, monkeypatch, bound):
        # the tail of each distinct (|b|², a·b, |a×b|) of an orbit's first
        # row is made once, and no later image of the orbit makes one
        calls = collections.Counter()
        build = enumeration._tail

        def counted(a, b):
            m1, n1, _ = a
            m2, n2, norm_b = b
            calls[m1, n1, norm_b, m1 * m2 + n1 * n2, abs(m1 * n2 - m2 * n1)] += 1
            return build(a, b)

        monkeypatch.setattr(enumeration, "_tail", counted)
        for job in every_job([bound], counts=(1, 3)):
            for view in (list, lambda stream: written(stream, "csv")):
                calls.clear()
                view(enumerate_records(job))
                assert calls == first_rows(job), job

    def test_a_symmetry_keeps_every_tail(self):
        # (g·a)·b = a·(g⁻¹·b) and |g·a × b| = |a × g⁻¹·b|, so the walk may
        # take the row of g·a from the row of a, each at bound 3 with zero
        span = range(-3, 4)
        spinors = [(m, n, m * m + n * n) for m in span for n in span]
        images = enumeration._images(spinors)
        tables = {tuple(image) for image in images}
        # eight distinct permutations of the box, closed under composition
        assert len(images) == len(tables) == 8
        assert all(sorted(image) == list(range(len(spinors))) for image in images)
        assert {tuple(f[i] for i in g) for f in tables for g in tables} == tables
        for image in images:
            inverse = sorted(range(len(spinors)), key=image.__getitem__)
            for i, a in enumerate(spinors):
                moved = spinors[image[i]]
                for j, b in enumerate(spinors):
                    assert _tail(moved, b) == _tail(a, spinors[inverse[j]]), (moved, b)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_the_writer_keys_tails_by_their_own_values(self, fmt):
        # records that share an orbit key, some with a hand-altered tail,
        # each write their own line: the writer formats every record from
        # its own values
        twins = [_record((3, 0, 9), (-1, 2, 5)), _record((0, 3, 9), (-2, -1, 5))]
        assert orbit_key(twins[0]) == orbit_key(twins[1])
        records = []
        for record in twins:
            records += [
                record,
                record._replace(d2=7),
                record._replace(canonical=(1, 2, 3, 4)),
                record._replace(primitive=False),
                record._replace(a=-record.a, b=10**30),
                record._replace(canonical=[2, 3, 6, 23]),
            ]
        assert_same_text(written(records, fmt), with_header(oracle_lines(records, fmt), fmt))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_record_line_depends_on_that_record_alone(self, fmt, tmp_path):
        # f's tail compares equal to r's, as 6.0 == 6, but is spelled
        # otherwise, so a writer that shared equal tails between records
        # would write one of the two with the other's text
        r, s = list(enumerate_records(EnumerationJob(bound=1)))[:2]
        f = r._replace(m1=9, d2=float(r.d2))
        # a first spinor spelled otherwise starts a row of its own, though
        # it compares equal to its neighbour's; the order of a list is kept
        # however its first spinors come
        bound_3 = list(enumerate_records(EnumerationJob(bound=3)))
        shuffled = bound_3[:]
        random.Random(42).shuffle(shuffled)
        for records in (
            [f, r],
            [r, f],
            [r, r._replace(m1=float(r.m1)), r._replace(n1=float(r.n1), d2=6.0), s],
            bound_3[::-1],
            shuffled,
        ):
            assert_same_text(written(records, fmt), with_header(oracle_lines(records, fmt), fmt), records[:4])
        path = str(tmp_path / f"record.{fmt}")
        assert write_records([r], path, fmt) == 1
        assert read_records(path, fmt) == [r]


def record_path(job: EnumerationJob, fmt: str) -> str:
    """The job's records drawn into a list, each line then spelled whole
    by ``_line``: text that shares no join with ``_write``."""
    return with_header(oracle_lines(list(enumerate_records(job)), fmt), fmt)


def every_job(bounds, counts=range(1, 6)):
    """Every job of the bounds, filters and shard counts."""
    for bound in bounds:
        for primitive_only in (False, True):
            for include_zero in (False, True):
                for count in counts:
                    for index in range(count):
                        yield EnumerationJob(
                            bound=bound,
                            primitive_only=primitive_only,
                            shard=Shard(index, count),
                            include_zero=include_zero,
                        )


class TestTwoViews:
    """``write_stream`` writes a stream of ``enumerate_records`` whole
    through the walk's line view, and every other iterable by runs of its
    records; each must write the lines that ``_line`` spells whole."""

    @pytest.mark.parametrize("bound", range(1, 8))
    def test_the_line_view_writes_what_the_record_path_writes(self, bound, tmp_path):
        # bound 7, past the oracle's bound 6, has rows of 224 spinors: its
        # jobs of 1 and 3 shards
        for job in every_job([bound], counts=range(1, 6) if bound < 7 else (1, 3)):
            records = list(enumerate_records(job))
            for fmt in FORMATS:
                expected = with_header(oracle_lines(records, fmt), fmt)
                handle = io.StringIO()
                assert write_stream(enumerate_records(job), handle, fmt) == len(records)
                assert_same_text(handle.getvalue(), expected, (job, fmt))
                assert_same_text(written(records, fmt), expected, (job, fmt, "list"))
        # 3 shard files of the line view merge into the unsharded record path
        for primitive_only in (False, True):
            whole = EnumerationJob(bound=bound, primitive_only=primitive_only)
            records = list(enumerate_records(whole))
            for fmt in FORMATS:
                paths = write_shards(tmp_path, bound, 3, fmt, primitive_only=primitive_only)
                merged = str(tmp_path / f"merged.{fmt}")
                assert merge_shards(paths, merged, fmt) == len(records)
                expected = with_header(oracle_lines(records, fmt), fmt)
                assert_same_text(read_bytes(merged), expected, (whole, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_an_iterated_stream_is_written_whole(self, fmt, tmp_path):
        # iterating a stream, in part or whole, leaves nothing behind: a
        # stream written after it writes the whole job, manifest and all
        job = EnumerationJob(bound=2, primitive_only=True, shard=Shard(1, 3))
        expected = record_path(job, fmt)
        count = len(list(enumerate_records(job)))
        for name, iterate in (
            ("fresh", lambda stream: None),
            ("listed", list),
            ("drawn", lambda stream: next(iter(stream))),
            ("written", lambda stream: write_stream(stream, io.StringIO(), fmt)),
        ):
            stream = enumerate_records(job)
            iterate(stream)
            assert_same_text(written(stream, fmt), expected, name)
            path = str(tmp_path / f"{name}.{fmt}")
            assert write_records(stream, path, fmt) == count
            assert_same_text(read_bytes(path), expected, name)
            assert manifest_of(path) == manifest_of(str(tmp_path / f"fresh.{fmt}")), name
        whole = EnumerationJob(bound=2, primitive_only=True)
        paths = write_shards(tmp_path, 2, 3, fmt, primitive_only=True)
        paths[1] = str(tmp_path / f"drawn.{fmt}")
        merged = str(tmp_path / f"merged.{fmt}")
        assert merge_shards(paths, merged, fmt) == len(list(enumerate_records(whole)))
        assert_same_text(read_bytes(merged), record_path(whole, fmt))

    def test_a_stream_is_a_view_of_its_job(self):
        job = EnumerationJob(bound=1)
        stream = enumerate_records(job)
        assert stream.job is job
        assert not isinstance(stream, collections.abc.Iterator)
        with pytest.raises(TypeError):
            next(stream)
        first = iter(stream)
        assert next(first) == next(iter(stream))
        assert list(stream) == list(stream) == oracle_stream(1, False, False)
        assert list(first) == oracle_stream(1, False, False)[1:]

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("primitive_only", [False, True])
    def test_the_line_view_builds_no_record_and_each_tail_once(self, monkeypatch, fmt, primitive_only):
        # each |a|² of bound 3 has one first-spinor orbit, so the walk
        # makes one tail for each orbit key
        job = EnumerationJob(bound=3, primitive_only=primitive_only, shard=Shard(0, 2))
        expected = record_path(job, fmt)
        keys = {orbit_key(record) for record in enumerate_records(job)}
        calls = collections.Counter()
        build = enumeration._tail

        def counted(a, b):
            m1, n1, norm_a = a
            m2, n2, norm_b = b
            calls[norm_a, norm_b, m1 * m2 + n1 * n2, abs(m1 * n2 - m2 * n1)] += 1
            return build(a, b)

        monkeypatch.setattr(enumeration, "_tail", counted)
        # the record view cannot make a record of this
        monkeypatch.setattr(enumeration, "QuadrupleRecord", None)
        assert_same_text(written(enumerate_records(job), fmt), expected)
        assert calls == dict.fromkeys(keys, 1)


# the sha256 of ``enumerate --bound 10 --primitive`` stdout, 129,168
# records, computed before a held orbit row became one list
BOUND_10_PRIMITIVE = {
    "csv": "b31d86b27b8136d568ce71b0bebd056335249e1632d78ff74cc3de4a866c61b1",
    "jsonl": "bedc4e421c59466e7ad57dfa9b0ff4312be8f144b0f72c5b3fdd3ea553a6bc2b",
}


class TestPinnedDigests:
    """Both views go through the same walk, so a change to the walk that
    alters them alike passes ``TestTwoViews``; the digests pinned here do
    not come from the walk."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_bound_10_primitive_stdout(self, fmt):
        argv = ["enumerate", "--bound", "10", "--primitive", "--format", fmt]
        stdout = subprocess.run(
            [sys.executable, "-m", "spintile.cli", *argv], capture_output=True, check=True
        ).stdout
        records = stdout.count(b"\n") - bool(FORMATS[fmt].header)
        assert (records, hashlib.sha256(stdout).hexdigest()) == (129168, BOUND_10_PRIMITIVE[fmt])


def manifest_of(path: str) -> dict:
    with open(path + ".json") as handle:
        return json.load(handle)


def rewrite(path: str, data: bytes, **changes) -> None:
    """Write ``data`` as the shard file ``path``, and a manifest that
    lists its sha256 and, with ``changes``, any other field as given."""
    with open(path, "wb") as handle:
        handle.write(data)
    manifest = {**manifest_of(path), "sha256": hashlib.sha256(data).hexdigest(), **changes}
    with open(path + ".json", "w") as handle:
        json.dump(manifest, handle)


def read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


class TestManifests:
    """``write_records`` writes a manifest beside each shard file of a
    stream, and beside no other file."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_manifest_lists_the_job_the_hash_and_the_rows(self, fmt, tmp_path):
        # an unfiltered job written in the format it does not name
        paths = write_shards(tmp_path, 3, 4, fmt, include_zero=True)
        for index, path in enumerate(paths):
            data = read_bytes(path)
            manifest = manifest_of(path)
            rows = manifest.pop("rows")
            job = EnumerationJob(bound=3, include_zero=True, shard=Shard(index, 4))
            records = list(enumerate_records(job))
            assert manifest == {
                "version": 1, "bound": 3, "primitive_only": False, "include_zero": True,
                "format": fmt, "count": 4, "index": index, "records": len(records),
                "sha256": hashlib.sha256(data).hexdigest(),
            }
            heads = list(dict.fromkeys((r.m1, r.n1) for r in records))
            assert [row[:2] for row in rows] == [list(head) for head in heads]
            header = len(FORMATS[fmt].header) + 1 if FORMATS[fmt].header else 0
            offsets = [header + sum(row[2] for row in rows[:i]) for i in range(len(rows) + 1)]
            assert offsets[-1] == len(data)
            for (m1, n1, _), start, end in zip(rows, offsets, offsets[1:]):
                lines = data[start:end].decode().splitlines(keepends=True)
                assert lines == oracle_lines([r for r in records if (r.m1, r.n1) == (m1, n1)], fmt)

    def test_only_a_stream_of_a_sharded_job_gets_one(self, tmp_path):
        job = EnumerationJob(bound=2, shard=Shard(1, 3))
        iterated = enumerate_records(job)
        next(iter(iterated))
        for name, records in (
            ("unsharded", enumerate_records(EnumerationJob(bound=2))),
            ("listed", list(enumerate_records(job))),
            ("iterated", iterated),
            ("shard", enumerate_records(job)),
        ):
            write_records(records, str(tmp_path / f"{name}.csv"), "csv")
        with open(tmp_path / "stdout.csv", "w") as handle:
            write_stream(enumerate_records(job), handle, "csv")
        listed = (tmp_path / "listed.csv").read_bytes()
        for name in ("iterated", "shard", "stdout"):
            assert (tmp_path / f"{name}.csv").read_bytes() == listed, name
        assert sorted(os.listdir(tmp_path)) == [
            "iterated.csv", "iterated.csv.json", "listed.csv", "shard.csv", "shard.csv.json",
            "stdout.csv", "unsharded.csv",
        ]

    def test_a_failed_shard_leaves_no_manifest(self, monkeypatch, tmp_path):
        def exploding(a, b):
            raise RuntimeError("midway")

        monkeypatch.setattr(enumeration, "_tail", exploding)
        with pytest.raises(RuntimeError):
            write_records(enumerate_records(EnumerationJob(bound=2, shard=Shard(0, 2))),
                          str(tmp_path / "shard.csv"), "csv")
        assert os.listdir(tmp_path) == []


class TestMergeRefusals:
    """``merge_shards`` refuses every set of files that is not one whole
    job as ``enumerate`` wrote it, naming a shard file and leaving no
    merged and no partial file behind."""

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_missing_shard(self, fmt, tmp_path):
        # merged into 11,040 of the 14,400 records before manifests
        paths = write_shards(tmp_path, 5, 4, fmt)
        given = [paths[0], paths[1], paths[3]]
        message = assert_refused(given, fmt, paths[0])
        assert message.startswith("shard 2 of 4 is missing from ")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_duplicated_index(self, fmt, tmp_path):
        paths = write_shards(tmp_path, 2, 3, fmt)
        assert_refused([paths[0], paths[1], paths[1], paths[2]], fmt, paths[1], "is shard 1 of 3, as")
        # shard 2's manifest rewritten to call it shard 1
        rewrite(paths[2], read_bytes(paths[2]), index=1)
        assert_refused(paths, fmt, paths[2], "is shard 1 of 3, as")

    @pytest.mark.parametrize("index", [4, -1])
    def test_an_index_outside_the_job(self, index, tmp_path):
        paths = write_shards(tmp_path, 2, 4, "csv")
        rewrite(paths[2], read_bytes(paths[2]), index=index)
        message = assert_refused(paths, "csv", paths[2])
        assert message == f"{paths[2]}.json names shard {index} of 4"

    @pytest.mark.parametrize(
        "other, field",
        [
            ({"bound": 3}, "bound 3"),
            ({"primitive_only": True}, "primitive_only True"),
            ({"include_zero": True}, "include_zero True"),
            ({"count": 3}, "count 3"),
        ],
    )
    def test_a_shard_of_another_job(self, other, field, tmp_path):
        paths = write_shards(tmp_path, 2, 4, "csv")
        (tmp_path / "other").mkdir()
        settings = {"bound": 2, "count": 4, "primitive_only": False, "include_zero": False, **other}
        bound, count = settings.pop("bound"), settings.pop("count")
        stranger = write_shards(tmp_path / "other", bound, count, "csv", **settings)[2]
        message = assert_refused([*paths[:2], stranger, paths[3]], "csv", stranger)
        assert message == f"{stranger} is a shard of another job than {paths[0]}: {field}"

    def test_a_shard_of_another_format(self, tmp_path):
        csv = write_shards(tmp_path, 2, 2, "csv")
        jsonl = write_shards(tmp_path, 2, 2, "jsonl")
        assert_refused([csv[0], jsonl[1]], "csv", jsonl[1], "is a 'jsonl' shard, not 'csv'")
        assert_refused(jsonl, "csv", jsonl[0], "is a 'jsonl' shard, not 'csv'")
        # a jsonl job written as csv is a csv shard
        job = EnumerationJob(bound=2, output_format="jsonl", shard=Shard(1, 2))
        write_records(enumerate_records(job), csv[1], "csv")
        assert merge_shards(csv, str(tmp_path / "merged.csv"), "csv") == expected_record_count(2)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_truncated_file(self, fmt, tmp_path):
        paths = write_shards(tmp_path, 3, 2, fmt)
        data = read_bytes(paths[1])
        last = data.rindex(b"\n", 0, -1) + 1
        first_row = len(data) - sum(row[2] for row in manifest_of(paths[1])["rows"][1:])
        # a byte short, a line short, a row short, and empty
        for size in (len(data) - 1, last, first_row, 0):
            with open(paths[1], "wb") as handle:
                handle.write(data[:size])
            assert_refused(paths, fmt, paths[1])

    def test_a_value_edit_that_keeps_the_spelling(self, tmp_path):
        # merged into 18,896 records with no error before manifests
        paths = write_shards(tmp_path, 6, 4, "jsonl", primitive_only=True)
        path = next(path for path in paths if b'"D1":259,' in read_bytes(path))
        data = read_bytes(path)
        for edit in (b'"D1":1259,', b'"D1":258,'):
            with open(path, "wb") as handle:
                handle.write(data.replace(b'"D1":259,', edit, 1))
            # every line is still spelled as enumerate writes it
            assert len(read_records(path, "jsonl")) == manifest_of(path)["records"]
            assert_refused(paths, "jsonl", path)

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_changed_first_byte_or_an_added_line(self, fmt, tmp_path):
        # the first byte is the header's in csv and the first row's in jsonl
        paths = write_shards(tmp_path, 3, 2, fmt)
        data = read_bytes(paths[1])
        middle = data.index(b"\n", len(data) // 2) + 1
        for changed in (
            b"#" + data[1:],
            data[:middle] + b"\n" + data[middle:],
            data + b"\n",
            data + data[middle:data.index(b"\n", middle) + 1],
        ):
            with open(paths[1], "wb") as handle:
                handle.write(changed)
            assert_refused(paths, fmt, paths[1])

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_row_lengths_shifted_between_two_rows(self, fmt, tmp_path):
        # the file and its sha256 are untouched: the manifest moves the
        # boundary of two rows by a byte, or by the whole line next to it
        paths = write_shards(tmp_path, 3, 2, fmt)
        data = read_bytes(paths[1])
        rows = manifest_of(paths[1])["rows"]
        header = len(FORMATS[fmt].header) + 1 if FORMATS[fmt].header else 0
        end = header + rows[0][2] + rows[1][2]  # the end of the second row
        first = data.index(b"\n", end) + 1 - end  # the third row's first line
        last = end - data.rindex(b"\n", 0, end - 1) - 1  # the second row's last line
        for shift in (1, -1, first, -last):
            moved = [row[:] for row in rows]
            moved[1][2] += shift
            moved[2][2] -= shift
            rewrite(paths[1], data, rows=moved)
            assert_refused(paths, fmt, paths[1], "are not the row of first spinor")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_row_that_two_shards_hold(self, fmt, tmp_path):
        # shard 1 rewritten, with a manifest to match, to hold a row of
        # shard 0 as well, in stream order
        paths = write_shards(tmp_path, 3, 2, fmt)
        header = len(FORMATS[fmt].header) + 1 if FORMATS[fmt].header else 0
        rows = {}  # the bytes of each row of both shards, by its first spinor
        for path in paths:
            data, start = read_bytes(path), header
            for m1, n1, size in manifest_of(path)["rows"]:
                rows[m1, n1] = data[start:start + size]
                start += size
        theirs, ours = manifest_of(paths[0])["rows"], manifest_of(paths[1])["rows"]
        extra = theirs[len(theirs) // 2]
        both = sorted([*ours, extra])
        body = b"".join(rows[m1, n1] for m1, n1, _ in both)
        count = manifest_of(paths[1])["records"] + rows[tuple(extra[:2])].count(b"\n")
        rewrite(paths[1], read_bytes(paths[1])[:header] + body, rows=both, records=count)
        message = f"holds the row of first spinor {tuple(extra[:2])}, as"
        assert_refused(paths, fmt, paths[1], message)
        # the later shard in the paths is named, whichever holds it
        assert_refused(paths[::-1], fmt, paths[0], message)

    def test_a_forged_count_row_order_or_row_length(self, tmp_path):
        paths = write_shards(tmp_path, 2, 2, "csv")
        data, manifest = read_bytes(paths[1]), manifest_of(paths[1])
        rewrite(paths[1], data, records=manifest["records"] + 1)
        assert_refused(paths, "csv", paths[1], "records, not the")
        rewrite(paths[1], data, records=manifest["records"], rows=manifest["rows"][::-1])
        assert_refused(paths, "csv", paths[1], "lists its rows out of stream order")
        # a row longer than any file is refused before it is read
        (m1, n1, _), *rest = manifest["rows"]
        rewrite(paths[1], data, rows=[[m1, n1, 10**30], *rest])
        assert_refused(paths, "csv", paths[1], f"holds {len(data)} bytes, not the")

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_shard_with_no_manifest(self, fmt, tmp_path):
        paths = write_shards(tmp_path, 2, 3, fmt)
        os.unlink(paths[1] + ".json")
        message = assert_refused(paths, fmt, paths[1])
        assert message == (
            f"{paths[1]} has no manifest {paths[1]}.json: rewrite it with "
            "enumerate --shard K/N --out F"
        )

    @pytest.mark.parametrize(
        "text",
        [
            "", "[]", "not json", "\xff",
            '{"version": 1}',
            "with an extra field",
            "with a bool for the bound",
            "with a row of two numbers",
            "with a row of no bytes",
            "with a row of negative bytes",
            # json reads arrays this deep only past the recursion limit
            pytest.param('{"rows": %s%s}' % ("[" * 100_000, "]" * 100_000), id="nested-100000-deep"),
        ],
    )
    def test_a_manifest_in_another_shape(self, text, tmp_path):
        paths = write_shards(tmp_path, 2, 2, "csv")
        manifest = manifest_of(paths[1])
        if text.startswith("with "):
            edits = {
                "with an extra field": {"extra": 0},
                "with a bool for the bound": {"bound": True},
                "with a row of two numbers": {"rows": [manifest["rows"][0][:2]]},
                "with a row of no bytes": {"rows": [[*manifest["rows"][0][:2], 0]]},
                "with a row of negative bytes": {"rows": [[*manifest["rows"][0][:2], -1]]},
            }
            text = json.dumps({**manifest, **edits[text]})
        with open(paths[1] + ".json", "w", encoding="latin-1") as handle:
            handle.write(text)
        message = assert_refused(paths, "csv", paths[1])
        assert message == f"{paths[1]}.json is not a shard manifest as enumerate writes it"

    def test_a_manifest_of_another_version(self, tmp_path):
        paths = write_shards(tmp_path, 2, 2, "csv")
        for path in paths:
            rewrite(path, read_bytes(path), version=0)
        message = assert_refused(paths, "csv", paths[0])
        assert message == (
            f"{paths[0]}.json is a manifest of version 0, not 1: rewrite it with "
            "enumerate --shard K/N --out F"
        )

    def test_no_shards(self, tmp_path):
        with pytest.raises(ValueError, match="^no shard files to merge$"):
            merge_shards([], str(tmp_path / "merged.csv"), "csv")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize(
        "kind, suffix", [("shard file", ""), ("manifest of the shard file", ".json")],
        ids=["shard", "manifest"],
    )
    def test_an_output_that_is_a_shard_file_or_its_manifest(self, kind, suffix, fmt, tmp_path):
        # merged onto itself, a shard file was replaced and its manifest
        # left stale, so that the next merge of the set was refused
        paths = write_shards(tmp_path, 2, 3, fmt)
        target = paths[1] + suffix
        linked = str(tmp_path / "linked")
        os.link(target, linked)
        before = {name: read_bytes(str(tmp_path / name)) for name in os.listdir(tmp_path)}
        # the file by its own name, by another spelling and by a hard link
        respelt = os.path.join(str(tmp_path), ".", os.path.basename(target))
        for out in (target, respelt, linked):
            with pytest.raises(ValueError) as caught:
                merge_shards(paths, out, fmt)
            assert str(caught.value) == f"merging into {out} would replace the {kind} {paths[1]}"
            after = {name: read_bytes(str(tmp_path / name)) for name in os.listdir(tmp_path)}
            assert after == before, out
        assert merge_shards(paths, str(tmp_path / f"merged.{fmt}"), fmt) == expected_record_count(2)

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize(
        "spelling", ["+3", "03", "-0", " 3", "\uff13"], ids=["plus", "zero", "minus-zero", "space", "full-width"]
    )
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_misspelt_generator(self, fmt, spelling, position, tmp_path):
        # read_records refuses the line by number, the merge the file
        paths = write_shards(tmp_path, 2, 2, fmt)
        with open(paths[0], encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
        number = 2 if FORMATS[fmt].header else 1
        pieces = lines[number - 1].split(",", 4)
        pieces[position] = re.sub("-?[0-9]+$", spelling, pieces[position])
        lines[number - 1] = line = ",".join(pieces)
        with open(paths[0], "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        expected = f"{paths[0]}, line {number}: not a {fmt} record line as enumerate writes it: {line!r}"
        with pytest.raises(ValueError) as caught:
            read_records(paths[0], fmt)
        assert str(caught.value) == expected
        assert_refused(paths, fmt, paths[0])

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_bad_line(self, fmt, tmp_path):
        # a line of the same length spelled otherwise, as the first, a
        # middle and the last line of a row: read_records names the line
        paths = write_shards(tmp_path, 3, 2, fmt)
        with open(paths[1], newline="") as handle:
            original = handle.readlines()
        header = 1 if FORMATS[fmt].header else 0
        size = len(original[header:]) // len(manifest_of(paths[1])["rows"])
        for index in (header + size, header + size + size // 2, header + 2 * size - 1):
            bad = "x" + original[index][1:]
            with open(paths[1], "w", newline="") as handle:
                handle.writelines(original[:index] + [bad] + original[index + 1:])
            message = f"{paths[1]}, line {index + 1}: not a {fmt} record line as enumerate writes it: {bad!r}"
            with pytest.raises(ValueError) as caught:
                read_records(paths[1], fmt)
            assert str(caught.value) == message
            assert_refused(paths, fmt, paths[1])

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_byte_that_is_not_utf8(self, fmt, tmp_path):
        paths = write_shards(tmp_path, 1, 2, fmt)
        with open(paths[1], "rb") as handle:
            lines = handle.readlines()
        lines[3] = lines[3][:6] + b"\xff" + lines[3][7:]
        with open(paths[1], "wb") as handle:
            handle.writelines(lines)
        text = lines[3].decode("utf-8", "surrogateescape")
        message = f"{paths[1]}, line 4: not a {fmt} record line as enumerate writes it: {text!r}"
        with pytest.raises(ValueError) as caught:
            read_records(paths[1], fmt)
        assert str(caught.value) == message
        assert_refused(paths, fmt, paths[1])
