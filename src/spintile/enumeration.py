"""Systematic enumeration of spinor-pair quadruple families.

Walks integer spinor pairs a = (m1, n1), b = (m2, n2) over the box
[-bound, bound]^4 in lexicographic order, skipping pairs where either
spinor is zero (they generate nothing but zeros), and emits one record
per pair carrying both curvature roots plus the canonical (sorted,
gcd-reduced) form of the quadruple.

Output is deterministic: the same job always produces byte-identical
files.  Sharded runs partition the emitted stream round-robin by record
index, so a merge of all shards reproduces the unsharded file exactly.
Shard K/N builds only its own records: unfiltered it decodes its pair
indices directly, and with ``primitive_only`` a gcd-only scan finds the
emitted index of each pair, so a shard does about 1/N of the work.
``merge_shards`` streams a k-way merge with memory flat in the stream
length; it needs every shard file in stream order, as this module
writes them, and rejects one that is not.
"""

from __future__ import annotations

import heapq
import json
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import IO, Iterable, Iterator, NamedTuple

CSV_HEADER = "m1,n1,m2,n2,A,B,C,D1,D2,canonical,primitive"

_JSON_FIELDS = ("m1", "n1", "m2", "n2", "A", "B", "C", "D1", "D2")


@dataclass(frozen=True)
class Shard:
    """One slice of a round-robin partition: records with
    index % count == index_of_this_shard."""

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1 or not 0 <= self.index < self.count:
            raise ValueError(f"invalid shard {self.index}/{self.count}")


@dataclass(frozen=True)
class EnumerationJob:
    bound: int
    primitive_only: bool = False
    output_format: str = "csv"
    shard: Shard = field(default_factory=Shard)
    include_zero: bool = False

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be at least 1, got {self.bound}")
        if self.output_format not in ("csv", "jsonl"):
            raise ValueError(f"unknown output format {self.output_format!r}")


class QuadrupleRecord(NamedTuple):
    m1: int
    n1: int
    m2: int
    n2: int
    a: int
    b: int
    c: int
    d1: int
    d2: int
    canonical: tuple[int, int, int, int]
    primitive: bool

    def generator_key(self) -> tuple[int, int, int, int]:
        return (self.m1, self.n1, self.m2, self.n2)


def _record(a: tuple[int, int, int], b: tuple[int, int, int]) -> QuadrupleRecord:
    """The record of the pair of lattice points ``a`` and ``b``; D1 is the
    larger root.  The all-zero quadruple has gcd 0: it stays as it is and
    is not primitive."""
    m1, n1, norm_a = a
    m2, n2, norm_b = b
    dot = m1 * m2 + n1 * n2
    twist = abs(2 * (m1 * n2 - m2 * n1))
    big_a = norm_b + dot
    big_b = norm_a + dot
    base = big_a + norm_a
    d1 = base + twist
    entries = sorted((big_a, big_b, -dot, d1))
    common = math.gcd(*entries)
    if common > 1:
        w, x, y, z = entries
        entries = [w // common, x // common, y // common, z // common]
    return QuadrupleRecord(
        m1, n1, m2, n2, big_a, big_b, -dot, d1, base - twist, tuple(entries), common == 1
    )


def _is_primitive(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether the quadruple of the pair has no common factor, without
    building it: |b|² = A + C, |a|² = B + C, a·b = −C and
    2|a×b| = D1 − A − B − C, so (A, B, C, D1) and (|a|², |b|², a·b, 2 a×b)
    have the same gcd."""
    m1, n1, norm_a = a
    m2, n2, norm_b = b
    return math.gcd(norm_a, norm_b, m1 * m2 + n1 * n2, 2 * (m1 * n2 - m2 * n1)) == 1


def _record_for_pair(m1: int, n1: int, m2: int, n2: int) -> QuadrupleRecord:
    return _record((m1, n1, m1 * m1 + n1 * n1), (m2, n2, m2 * m2 + n2 * n2))


def enumerate_records(job: EnumerationJob) -> Iterator[QuadrupleRecord]:
    """Stream records for the job, honoring its shard and filters.

    Unfiltered, the pair with index ``i`` is ``points[i // size],
    points[i % size]``, so a shard walks only its own indices.  With
    ``primitive_only`` the round-robin runs over the emitted index: a
    gcd-only scan numbers the primitive pairs and full records are built
    only for the shard's own.
    """
    span = range(-job.bound, job.bound + 1)
    # the spinors of the box as (m, n, m² + n²), in lexicographic order
    points = [(m, n, m * m + n * n) for m in span for n in span if job.include_zero or m or n]
    size = len(points)
    index, count = job.shard.index, job.shard.count
    if not job.primitive_only:
        for row, a in enumerate(points):
            # row ``row`` holds the indices row*size .. row*size + size - 1
            for b in points[(index - row * size) % count :: count]:
                yield _record(a, b)
        return
    emitted = 0
    for a in points:
        for b in points:
            if _is_primitive(a, b):
                if emitted % count == index:
                    yield _record(a, b)
                emitted += 1


def expected_record_count(bound: int, include_zero: bool = False) -> int:
    """Size of the unfiltered, unsharded stream."""
    lattice = (2 * bound + 1) ** 2
    if include_zero:
        return lattice * lattice
    return (lattice - 1) ** 2


def dedup_canonical(records: Iterable[QuadrupleRecord]) -> list[tuple[int, int, int, int]]:
    """Distinct canonical quadruples, ascending by (sum, entries)."""
    unique = {record.canonical for record in records}
    return sorted(unique, key=lambda c: (sum(c), c))


def _csv_line(record: QuadrupleRecord) -> str:
    m1, n1, m2, n2, a, b, c, d1, d2, (w, x, y, z), primitive = record
    return (
        f"{m1},{n1},{m2},{n2},{a},{b},{c},{d1},{d2},"
        f"{w}:{x}:{y}:{z},{'true' if primitive else 'false'}"
    )


def _json_line(record: QuadrupleRecord) -> str:
    """The record as ``json.dumps(payload, separators=(",", ":"))`` would
    write it, formatted directly."""
    m1, n1, m2, n2, a, b, c, d1, d2, (w, x, y, z), primitive = record
    return (
        f'{{"m1":{m1},"n1":{n1},"m2":{m2},"n2":{n2},"A":{a},"B":{b},"C":{c},'
        f'"D1":{d1},"D2":{d2},"canonical":[{w},{x},{y},{z}],'
        f'"primitive":{"true" if primitive else "false"}}}'
    )


def write_stream(records: Iterable[QuadrupleRecord], handle: IO[str], fmt: str) -> int:
    """Write records to an open text handle; returns the record count."""
    count = 0
    if fmt == "csv":
        handle.write(CSV_HEADER + "\n")
        for record in records:
            handle.write(_csv_line(record) + "\n")
            count += 1
    elif fmt == "jsonl":
        for record in records:
            handle.write(_json_line(record) + "\n")
            count += 1
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    return count


def write_records(records: Iterable[QuadrupleRecord], path: str, fmt: str) -> int:
    """Atomic file write: land fully or not at all (temp file + rename)."""
    directory = os.path.dirname(os.path.abspath(path))
    descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(descriptor, "w", newline="") as handle:
            count = write_stream(records, handle, fmt)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return count


def _parse_csv_line(line: str) -> QuadrupleRecord:
    parts = line.split(",")
    if len(parts) != 11:
        raise ValueError(f"bad csv record: {line!r}")
    return QuadrupleRecord(
        *map(int, parts[:9]),
        tuple(map(int, parts[9].split(":"))),
        parts[10] == "true",
    )


def _parse_json_line(line: str) -> QuadrupleRecord:
    payload = json.loads(line)
    return QuadrupleRecord(
        *map(int, map(payload.__getitem__, _JSON_FIELDS)),
        tuple(payload["canonical"]),
        bool(payload["primitive"]),
    )


def _iter_records(path: str, fmt: str) -> Iterator[QuadrupleRecord]:
    """Parse a record file line by line, skipping blank lines."""
    if fmt == "csv":
        parse = _parse_csv_line
    elif fmt == "jsonl":
        parse = _parse_json_line
    else:
        raise ValueError(f"unknown output format {fmt!r}")
    with open(path, "r", newline="") as handle:
        lines = (line.rstrip("\n") for line in handle if line.strip())
        if fmt == "csv" and next(lines, None) != CSV_HEADER:
            raise ValueError(f"{path} does not start with the expected csv header")
        for line in lines:
            yield parse(line)


def read_records(path: str, fmt: str) -> list[QuadrupleRecord]:
    return list(_iter_records(path, fmt))


def _in_stream_order(path: str, fmt: str) -> Iterator[QuadrupleRecord]:
    """The records of one shard file, checked to be in stream order."""
    previous = None
    for record in _iter_records(path, fmt):
        key = record.generator_key()
        if previous is not None and key <= previous:
            raise ValueError(f"{path} is not in stream order at generators {key}")
        previous = key
        yield record


def merge_shards(paths: Iterable[str], out_path: str, fmt: str) -> int:
    """Merge shard files back into the unsharded stream order.

    The stream is lexicographic in the generator tuple and every shard
    file holds its records in stream order, as ``enumerate_records``
    writes them, so a streaming k-way merge on the generator tuple
    reproduces a single-shard run of the same job byte for byte while
    holding one record per shard in memory.  A shard whose generator
    tuples do not strictly increase raises ``ValueError``.
    """
    shards = [_in_stream_order(path, fmt) for path in paths]
    merged = heapq.merge(*shards, key=QuadrupleRecord.generator_key)
    return write_records(merged, out_path, fmt)
