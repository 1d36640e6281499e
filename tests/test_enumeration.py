"""Systematic sweep over generator pairs: counts, formats, shards."""

from __future__ import annotations

import bisect
import collections
import io
import json
import math
import os
import re
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintile import (
    CSV_HEADER,
    EnumerationJob,
    Shard,
    dedup_canonical,
    descartes_residual,
    enumerate_records,
    expected_record_count,
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
    _line,
    _line_grammar,
    _record,
    write_stream,
)
from spintile.cli import run

CSV, JSONL = FORMATS["csv"].template, FORMATS["jsonl"].template


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
        records = enumerate_records(EnumerationJob(bound=1))
        assert dedup_canonical(records) == [
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
        # the merge splits the line where the template is cut
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
        shards = [str(tmp_path / f"shard{k}.{fmt}") for k in range(3)]
        for k, path in enumerate(shards):
            write_records(records[k::3], path, fmt)
        merged = tmp_path / f"merged.{fmt}"
        assert merge_shards(shards, str(merged), fmt) == len(records)
        assert merged.read_bytes() == whole.read_bytes()
        assert read_records(str(merged), fmt) == records

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


class TestAtomicWrites:
    def test_rename_onto_a_directory_names_it(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.mkdir()
        assert run(["enumerate", "--bound", "1", "--out", str(target)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.endswith(f": {str(target)!r}\n")
        shard = tmp_path / "shard.csv"
        write_records(enumerate_records(EnumerationJob(bound=1)), str(shard), "csv")
        with pytest.raises(OSError) as caught:
            merge_shards([str(shard)], str(target), "csv")
        assert caught.value.filename == str(target)
        assert sorted(os.listdir(tmp_path)) == ["shard.csv", "taken"]
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
        shard = tmp_path / "shard.csv"
        write_records(enumerate_records(EnumerationJob(bound=1)), str(shard), "csv")
        target = str(tmp_path / "missing" / "merged.csv")
        for write in (
            lambda: write_records(enumerate_records(EnumerationJob(bound=1)), target, "csv"),
            lambda: merge_shards([str(shard)], target, "csv"),
        ):
            with pytest.raises(FileNotFoundError) as caught:
                write()
            assert caught.value.filename == target


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
        # each orbit key has its |a|² in one shard only, so the shards of
        # a job run the kernel as often as the unsharded job does
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
                merged = tmp_path / f"merged.{fmt}"
                for shards in range(1, 9):
                    paths = write_shards(tmp_path, bound, shards, fmt, include_zero, primitive_only)
                    assert merge_shards(paths, str(merged), fmt) == count
                    assert merged.read_bytes() == reference.read_bytes(), (job, shards)

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
    def test_merge_skips_blank_lines(self, fmt, tmp_path):
        reference = tmp_path / f"whole.{fmt}"
        write_records(enumerate_records(EnumerationJob(bound=1)), str(reference), fmt)
        shard_paths = write_shards(tmp_path, 1, 2, fmt)
        for path in shard_paths:
            with open(path) as handle:
                lines = handle.readlines()
            with open(path, "w") as handle:
                handle.writelines(["\n", *lines[:3], "  \n", *lines[3:], "\n"])
        merged = tmp_path / f"merged.{fmt}"
        assert merge_shards(shard_paths, str(merged), fmt) == 64
        assert merged.read_bytes() == reference.read_bytes()

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
        merged = tmp_path / f"merged.{fmt}"
        with pytest.raises(ValueError, match=rf"shard1\.{fmt}, line {index + 1}:"):
            merge_shards(shard_paths, str(merged), fmt)
        assert not merged.exists()
        with pytest.raises(ValueError, match=f"line {index + 1}:"):
            read_records(shard_paths[1], fmt)

    @pytest.mark.parametrize("primitive_only", [False, True])
    @pytest.mark.parametrize("count, index", [(1, 0), (3, 0), (3, 1), (3, 2)])
    def test_a_shard_builds_only_its_own_records(self, monkeypatch, primitive_only, count, index):
        # the kernel runs once for each orbit key among the shard's own
        # records, and never for a pair of another shard
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


class TestOrbitCaches:
    """The walk and the writer cache each record tail by its orbit; the
    bytes must be those of the cache-free oracle, within the cap and past
    it."""

    @pytest.mark.parametrize("cap", [enumeration._CACHE_SIZE, 3], ids=["cap", "past-cap"])
    @pytest.mark.parametrize(
        "bound, include_zero", [(1, False), (1, True), (2, False), (2, True), (3, False),
                                (3, True), (4, False), (6, False)]
    )
    def test_every_job_matches_the_oracle(self, monkeypatch, cap, bound, include_zero):
        monkeypatch.setattr(enumeration, "_CACHE_SIZE", cap)
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
                        assert written(enumerate_records(job), fmt) == expected, job

    def test_a_bound_past_the_cap_matches_the_oracle(self, monkeypatch, tmp_path):
        # bound 6 has 3,492 orbit keys: a cap of 1,000 fills midway
        monkeypatch.setattr(enumeration, "_CACHE_SIZE", 1000)
        job = EnumerationJob(bound=6)
        path = tmp_path / "records.csv"
        assert write_records(enumerate_records(job), str(path), "csv") == 28224
        assert path.read_text() == with_header(oracle_lines(oracle_stream(6, False, False), "csv"), "csv")

    def test_a_full_cache_stops_inserting(self, monkeypatch):
        # with room for three entries, both caches keep the first three
        # tails of the stream, and every other record past them computes
        # and formats its tail afresh
        monkeypatch.setattr(enumeration, "_CACHE_SIZE", 3)
        calls = {"_tail": 0, "_fields": 0}
        for name in calls:

            def counted(*args, name=name, build=getattr(enumeration, name)):
                calls[name] += 1
                return build(*args)

            monkeypatch.setattr(enumeration, name, counted)
        records = list(enumerate_records(EnumerationJob(bound=2)))
        written(records, "csv")
        keys = [orbit_key(record) for record in records]
        kept = list(dict.fromkeys(keys))[:3]
        fresh = len(kept) + sum(key not in kept for key in keys)
        assert calls == {"_tail": fresh, "_fields": fresh}

    @pytest.mark.parametrize("cap", [enumeration._CACHE_SIZE, 1], ids=["cap", "past-cap"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_the_writer_keys_tails_by_their_own_values(self, monkeypatch, cap, fmt):
        # records that share an orbit key, some with a hand-altered tail,
        # each write their own line
        monkeypatch.setattr(enumeration, "_CACHE_SIZE", cap)
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
        assert written(records, fmt) == with_header(oracle_lines(records, fmt), fmt)


# substitutions that the piece check of ``merge_shards`` must refuse or
# accept exactly as the line grammar does; ``int()`` reads the Arabic-Indic
# and the fullwidth digit, and ``[0-9]`` reads neither
SUBSTITUTES = ["0", "7", "-", "+", ",", ":", " ", "\r", "\n", '"', "٣", "³", "１", "e"]


def variants(line: str) -> list[str]:
    """Misspellings and respellings of a record line: every one-character
    deletion and substitution, every comma doubled, a zero or a minus
    before every integer (giving leading zeros and ``-0``), and the line
    without its newline."""
    out = [line[:i] + line[i + 1:] for i in range(len(line))]
    out += [line[:i] + c + line[i + 1:] for i in range(len(line)) for c in SUBSTITUTES]
    out += [line[:i] + "," + line[i:] for i, c in enumerate(line) if c == ","]
    starts = [i for i, c in enumerate(line) if c.isdigit() and not line[i - 1 : i].isdigit()]
    out += [line[:i] + prefix + line[i:] for i in starts for prefix in ("0", "-", "00")]
    out += [line.rstrip("\n"), "\n", " \n", "\t\r\n", ""]
    return out


def piece_key(check, line: str):
    """The key that the merge's piece check gives the line, or None when it
    skips the line as blank or refuses it; a refusal must name the line."""
    try:
        keys, lines = check.keys([line], "shard.txt", 6, ())
    except ValueError as error:
        expected = f"not a {check.fmt} record line as enumerate writes it: {line!r}"
        assert str(error) == f"shard.txt, line 7: {expected}"
        return None
    assert lines == ([line] if keys else [])
    if not keys:
        assert not line.strip()
    return keys[0] if keys else None


def block_ends(path: str, fmt: str) -> list[int]:
    """The number of the last line of each block that ``merge_shards``
    reads from a shard file."""
    header = 1 if FORMATS[fmt].header else 0
    with open(path, encoding="utf-8", newline="") as handle:
        for _ in range(header):
            handle.readline()
        ends = [header]
        while block := handle.readlines(enumeration._READ_HINT):
            ends.append(ends[-1] + len(block))
    return ends[1:]


def generators(line: str, fmt: str) -> tuple[int, ...]:
    return tuple(map(int, _line_grammar(fmt).fullmatch(line).group(1, 2, 3, 4)))


class TestMergeChecks:
    """``merge_shards`` checks each distinct piece of a line once and
    merges by runs of whole blocks; it must accept and refuse exactly the
    lines and the shards that a line-by-line merge does."""

    @pytest.mark.parametrize("cap", [enumeration._CACHE_SIZE, 1], ids=["cap", "past-cap"])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_the_piece_check_accepts_what_the_grammar_accepts(self, monkeypatch, cap, fmt):
        monkeypatch.setattr(enumeration, "_CACHE_SIZE", cap)
        template = FORMATS[fmt].template
        records = [
            _record((3, 0, 9), (-1, 2, 5)),
            _record((0, 0, 0), (0, 0, 0)),
            _record((-12, 10, 244), (7, -20, 449)),
            _record((2, 2, 8), (-2, 2, 8)),
        ]
        corpus = [_line(template, record) + "\n" for record in records]
        corpus += [variant for line in corpus[:] for variant in variants(line)]
        fullmatch = _line_grammar(fmt).fullmatch
        expected = [fullmatch(line) and generators(line, fmt) for line in corpus]
        assert 0 < sum(map(bool, expected)) < len(corpus)
        # cold: a fresh check for every line
        assert [piece_key(enumeration._PieceCheck(fmt), line) for line in corpus] == expected
        # warm: one check for the whole corpus, twice over
        check = enumeration._PieceCheck(fmt)
        for _ in range(2):
            assert [piece_key(check, line) for line in corpus] == expected
        assert all(len(cache) <= cap for cache in (*check.values, check.tails))

    @pytest.mark.parametrize("position", range(4))
    @pytest.mark.parametrize(
        "spelling", ["+3", "03", "-0", " 3", "\uff13"], ids=["plus", "zero", "minus-zero", "space", "full-width"]
    )
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_misspelt_generator_seen_first_is_refused(self, fmt, spelling, position, tmp_path):
        # the first record line of the first shard is the first text the
        # merge meets at each generator position
        paths = write_shards(tmp_path, 2, 2, fmt)
        with open(paths[0], encoding="utf-8", newline="") as handle:
            lines = handle.readlines()
        number = 2 if FORMATS[fmt].header else 1
        pieces = lines[number - 1].split(",", 4)
        pieces[position] = re.sub("-?[0-9]+$", spelling, pieces[position])
        lines[number - 1] = line = ",".join(pieces)
        with open(paths[0], "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        merged = tmp_path / f"merged.{fmt}"
        expected = f"{paths[0]}, line {number}: not a {fmt} record line as enumerate writes it: {line!r}"
        with pytest.raises(ValueError) as caught:
            merge_shards(paths, str(merged), fmt)
        assert str(caught.value) == expected
        assert not merged.exists()

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_merge_past_the_cache_cap_is_the_unsharded_file(self, monkeypatch, fmt, tmp_path):
        monkeypatch.setattr(enumeration, "_CACHE_SIZE", 2)
        reference = tmp_path / f"whole.{fmt}"
        write_records(enumerate_records(EnumerationJob(bound=3)), str(reference), fmt)
        paths = write_shards(tmp_path, 3, 3, fmt)
        merged = tmp_path / f"merged.{fmt}"
        assert merge_shards(paths, str(merged), fmt) == expected_record_count(3)
        assert merged.read_bytes() == reference.read_bytes()


    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_a_byte_that_is_not_utf8_names_its_line(self, fmt, tmp_path):
        paths = write_shards(tmp_path, 1, 2, fmt)
        with open(paths[1], "rb") as handle:
            lines = handle.readlines()
        lines[3] = lines[3][:6] + b"\xff" + lines[3][7:]
        with open(paths[1], "wb") as handle:
            handle.writelines(lines)
        text = lines[3].decode("utf-8", "surrogateescape")
        message = f"{paths[1]}, line 4: not a {fmt} record line as enumerate writes it: {text!r}"
        merged = tmp_path / f"merged.{fmt}"
        for read in (
            lambda: merge_shards(paths, str(merged), fmt),
            lambda: read_records(paths[1], fmt),
        ):
            with pytest.raises(ValueError) as caught:
                read()
            assert str(caught.value) == message
        assert sorted(os.listdir(tmp_path)) == [f"shard0.{fmt}", f"shard1.{fmt}"]


class TestMergeBlocks:
    """Faults past the first block that ``merge_shards`` reads, and across
    the boundary of two blocks, raise what a line-by-line merge raises,
    and leave no merged and no partial file behind."""

    BOUND, COUNT = 5, 2

    @pytest.fixture(params=["csv", "jsonl"])
    def shards(self, request, tmp_path):
        fmt = request.param
        paths = write_shards(tmp_path, self.BOUND, self.COUNT, fmt)
        for path in paths:
            assert len(block_ends(path, fmt)) >= 3
        return fmt, paths

    @staticmethod
    def lines(path: str) -> list[str]:
        with open(path, newline="") as handle:
            return handle.readlines()

    @staticmethod
    def rewrite(path: str, lines: list[str]) -> None:
        with open(path, "w", newline="") as handle:
            handle.writelines(lines)

    @staticmethod
    def refused(paths: list[str], fmt: str, message: str) -> None:
        directory = os.path.dirname(paths[0])
        before = sorted(os.listdir(directory))
        merged = os.path.join(directory, f"merged.{fmt}")
        with pytest.raises(ValueError) as caught:
            merge_shards(paths, merged, fmt)
        assert str(caught.value) == message
        assert sorted(os.listdir(directory)) == before

    @staticmethod
    def out_of_order(path: str, key: tuple[int, ...]) -> str:
        return (
            f"{path} breaks the stream order at generators {key}: a record out of order, "
            "or one that another shard also holds"
        )

    @staticmethod
    def places(path: str, fmt: str) -> dict[str, int]:
        """0-based line indices: one in the middle of the second block, the
        last line of the first block and the first line of the second."""
        first, second = block_ends(path, fmt)[:2]
        return {"inside": (first + second) // 2, "last": first - 1, "next": first}

    def test_a_bad_line(self, shards):
        fmt, paths = shards
        original = self.lines(paths[1])
        ends = block_ends(paths[1], fmt)
        for place, index in self.places(paths[1], fmt).items():
            # same length, so the blocks stay where they were
            bad = "x" + original[index][1:]
            self.rewrite(paths[1], original[:index] + [bad] + original[index + 1:])
            assert block_ends(paths[1], fmt) == ends
            message = (
                f"{paths[1]}, line {index + 1}: not a {fmt} record line as enumerate writes "
                f"it: {bad!r}"
            )
            self.refused(paths, fmt, message)
            with pytest.raises(ValueError) as caught:
                read_records(paths[1], fmt)
            assert str(caught.value) == message, place

    def test_blank_lines_are_skipped(self, shards, tmp_path):
        fmt, paths = shards
        reference = tmp_path / f"whole.{fmt}"
        write_records(enumerate_records(EnumerationJob(bound=self.BOUND)), str(reference), fmt)
        whole = self.lines(str(reference))
        original = self.lines(paths[1])
        for place, index in self.places(paths[1], fmt).items():
            # a whitespace line of the record's length stands in for it,
            # and the merge leaves the record out
            blank = " " * (len(original[index]) - 2) + "\t\n"
            self.rewrite(paths[1], original[:index] + [blank] + original[index + 1:])
            merged = tmp_path / f"merged.{fmt}"
            assert merge_shards(paths, str(merged), fmt) == len(whole) - 1 - (fmt == "csv")
            assert self.lines(str(merged)) == [line for line in whole if line != original[index]]
            # and a blank line added at the block boundary changes nothing
            self.rewrite(paths[1], original[: index + 1] + ["\n", "  \r\n"] + original[index + 1:])
            assert merge_shards(paths, str(merged), fmt) == len(whole) - (fmt == "csv")
            assert merged.read_bytes() == reference.read_bytes(), place

    def test_two_swapped_records(self, shards):
        fmt, paths = shards
        original = self.lines(paths[1])
        for place, index in self.places(paths[1], fmt).items():
            lines = original[:]
            lines[index], lines[index + 1] = lines[index + 1], lines[index]
            self.rewrite(paths[1], lines)
            if place == "last":
                # the two lines sit on both sides of the block boundary
                assert index + 1 in block_ends(paths[1], fmt)
            key = generators(lines[index + 1], fmt)
            self.refused(paths, fmt, self.out_of_order(paths[1], key))

    def test_a_record_that_two_shards_hold(self, shards):
        fmt, paths = shards
        original = self.lines(paths[1])
        header = original[:1] if fmt == "csv" else []
        theirs = self.lines(paths[0])
        places = self.places(paths[0], fmt)
        # the first line of a run of shard 0 inside its second block: a
        # record of shard 1 comes between it and the line before it
        ours = [generators(line, fmt) for line in original[len(header):]]
        keys = [generators(line, fmt) for line in theirs[len(header):]]
        runs = [
            i + len(header) for i in range(places["next"] + 1 - len(header), len(keys))
            if bisect.bisect(ours, keys[i - 1]) < bisect.bisect(ours, keys[i])
        ]
        assert runs and runs[0] < block_ends(paths[0], fmt)[1]
        for index in (places["last"], places["next"], runs[0]):
            record = theirs[index]
            body = sorted(original[len(header):] + [record], key=lambda line: generators(line, fmt))
            self.rewrite(paths[1], header + body)
            key = generators(record, fmt)
            self.refused(paths, fmt, self.out_of_order(paths[1], key))
            # the later shard in the paths is named, whichever holds it
            self.refused(paths[::-1], fmt, self.out_of_order(paths[0], key))

    def test_a_shard_passed_twice(self, shards):
        fmt, paths = shards
        header = 1 if FORMATS[fmt].header else 0
        first = generators(self.lines(paths[1])[header], fmt)
        self.refused([paths[0], paths[1], paths[1]], fmt, self.out_of_order(paths[1], first))
