"""Systematic enumeration of spinor-pair quadruple families.

Walks integer spinor pairs a = (m1, n1), b = (m2, n2) over the box
[-bound, bound]^4 in lexicographic order, skipping pairs where either
spinor is zero (they generate nothing but zeros), and emits one record
per pair carrying both curvature roots plus the canonical (sorted,
gcd-reduced) form of the quadruple, both from ``spintile.quadruples``.

Output is deterministic: the same job always produces byte-identical
files.  Sharded runs partition the emitted stream round-robin by record
index, so a merge of all shards reproduces the unsharded file exactly.
Shard K/N builds only its own records: unfiltered it decodes its pair
indices directly, and with ``primitive_only`` a gcd-only scan finds the
emitted index of each pair, so a shard does about 1/N of the work.
``merge_shards`` streams a k-way merge of lines with memory flat in the
stream length.  It accepts exactly the lines this module writes: each
line must match its format's compiled grammar (no added spaces, extra
keys or other spellings of a value), its first four integers are its
generator key, and it is copied through unchanged.  The keys must
strictly increase along the merged stream, so a shard out of stream
order, or a record in two shards, is rejected.  ``read_records`` parses
with the same grammars.
"""

from __future__ import annotations

import functools
import heapq
import math
import os
import re
import tempfile
from typing import IO, Callable, Iterable, Iterator, NamedTuple

from ._frozen import Factory, frozen
from .quadruples import canonical_form, pair_curvatures

CSV_HEADER = "m1,n1,m2,n2,A,B,C,D1,D2,canonical,primitive"


@frozen
class Shard:
    """One slice of a round-robin partition: records with
    index % count == index_of_this_shard."""

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        if self.count < 1 or not 0 <= self.index < self.count:
            raise ValueError(f"invalid shard {self.index}/{self.count}")


@frozen
class EnumerationJob:
    bound: int
    primitive_only: bool = False
    output_format: str = "csv"
    shard: Shard = Factory(Shard)
    include_zero: bool = False

    def __post_init__(self) -> None:
        if self.bound < 1:
            raise ValueError(f"bound must be at least 1, got {self.bound}")
        _record_format(self.output_format)


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
    """The record of the pair of lattice points ``a`` and ``b``."""
    big_a, big_b, big_c, d1, d2 = pair_curvatures(a, b)
    canonical, primitive = canonical_form(big_a, big_b, big_c, d1)
    return QuadrupleRecord(
        a[0], a[1], b[0], b[1], big_a, big_b, big_c, d1, d2, canonical, primitive
    )


def _is_primitive(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    """Whether the quadruple of the pair has no common factor, without
    building it: |b|² = A + C, |a|² = B + C, a·b = −C and
    2|a×b| = D1 − A − B − C, so (A, B, C, D1) and (|a|², |b|², a·b, 2 a×b)
    have the same gcd."""
    m1, n1, norm_a = a
    m2, n2, norm_b = b
    return math.gcd(norm_a, norm_b, m1 * m2 + n1 * n2, 2 * (m1 * n2 - m2 * n1)) == 1


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


class RecordFormat(NamedTuple):
    """An output format: its header line ("" for none) and the writer of
    a record line, neither with its newline, and the grammar template of
    that line: exactly what the writer writes, newline included, each INT
    one integer.  Groups 1-9 are m1 .. D2, groups 10-13 the canonical
    entries and group 14 the primitive flag."""

    header: str
    line: Callable[[QuadrupleRecord], str]
    template: str


FORMATS = {
    "csv": RecordFormat(
        CSV_HEADER,
        _csv_line,
        r"INT,INT,INT,INT,INT,INT,INT,INT,INT,INT:INT:INT:INT,(true|false)\n",
    ),
    "jsonl": RecordFormat(
        "",
        _json_line,
        r'\{"m1":INT,"n1":INT,"m2":INT,"n2":INT,"A":INT,"B":INT,"C":INT,"D1":INT,"D2":INT,'
        r'"canonical":\[INT,INT,INT,INT\],"primitive":(true|false)\}\n',
    ),
}


def _record_format(fmt: str) -> RecordFormat:
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    return FORMATS[fmt]


def write_stream(records: Iterable[QuadrupleRecord], handle: IO[str], fmt: str) -> int:
    """Write records to an open text handle; returns the record count."""
    header, line, _ = _record_format(fmt)
    if header:
        handle.write(header + "\n")
    count = 0
    for record in records:
        handle.write(line(record) + "\n")
        count += 1
    return count


def write_records(records: Iterable[QuadrupleRecord], path: str, fmt: str) -> int:
    """Atomic file write: land fully or not at all (temp file + rename)."""
    return _atomic_write(path, lambda handle: write_stream(records, handle, fmt))


def _atomic_write(path: str, write: Callable[[IO[str]], int]) -> int:
    """Run ``write`` on a temp file beside ``path`` and rename it into
    place; on any failure the temp file is removed.  Returns what
    ``write`` returns.  When the temp file cannot be made, the
    ``OSError`` names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(descriptor, "w", newline="") as handle:
            count = write(handle)
        os.replace(temp_path, path)
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return count


@functools.cache
def _line_grammar(fmt: str) -> re.Pattern[str]:
    """The compiled grammar of the format's record line.  Compiled on
    first use, so that importing the package (every CLI call) does not
    pay for it."""
    return re.compile(_record_format(fmt).template.replace("INT", "(0|-?[1-9][0-9]*)"))


def _record_lines(path: str, fmt: str) -> Iterator[tuple[re.Match[str], str]]:
    """Each record line of a file with its grammar match.

    Blank lines are skipped, and a file of a format with a header line
    must start with it.
    Any other line not spelled exactly as ``enumerate`` writes it raises
    ``ValueError`` naming the file and the line.
    """
    fullmatch = _line_grammar(fmt).fullmatch
    header = _record_format(fmt).header
    with open(path, "r", newline="") as handle:
        lines = enumerate(handle, 1)
        if header:
            first = next((line for _, line in lines if line.strip()), "")
            if first.rstrip("\n") != header:
                raise ValueError(f"{path} does not start with the expected {fmt} header")
        for number, line in lines:
            found = fullmatch(line)
            if found is None:
                if line.strip():
                    raise ValueError(
                        f"{path}, line {number}: not a {fmt} record line as enumerate "
                        f"writes it: {line!r}"
                    )
                continue
            yield found, line


def read_records(path: str, fmt: str) -> list[QuadrupleRecord]:
    records = []
    for found, _ in _record_lines(path, fmt):
        *values, primitive = found.groups()
        m1, n1, m2, n2, a, b, c, d1, d2, w, x, y, z = map(int, values)
        records.append(
            QuadrupleRecord(m1, n1, m2, n2, a, b, c, d1, d2, (w, x, y, z), primitive == "true")
        )
    return records


_Keyed = tuple[tuple[int, int, int, int], str, str]


def _keyed_lines(path: str, fmt: str) -> Iterator[_Keyed]:
    """``(generator key, line, path)`` for each record line of a shard."""
    for found, line in _record_lines(path, fmt):
        yield (int(found[1]), int(found[2]), int(found[3]), int(found[4])), line, path


def _write_merged(merged: Iterable[_Keyed], handle: IO[str], fmt: str) -> int:
    """Copy the merged lines through, checking that their generator keys
    strictly increase; returns the record count."""
    header = _record_format(fmt).header
    if header:
        handle.write(header + "\n")
    count = 0
    previous: tuple[int, ...] = ()
    write = handle.write
    for key, line, path in merged:
        if key <= previous:
            raise ValueError(
                f"{path} breaks the stream order at generators {key}: a record out of "
                "order, or one that another shard also holds"
            )
        previous = key
        write(line)
        count += 1
    return count


def merge_shards(paths: Iterable[str], out_path: str, fmt: str) -> int:
    """Merge shard files back into the unsharded stream order.

    The stream is lexicographic in the generator tuple and every shard
    file holds its records in stream order, as ``enumerate_records``
    writes them, so a streaming k-way merge on the generator tuple
    reproduces a single-shard run of the same job byte for byte while
    holding one line per shard in memory.  Each line must match the
    format's grammar, exactly as ``enumerate`` spells it, and is copied
    through unchanged.  The generator tuples must strictly increase along
    the merged stream, so a shard out of order, or a record that two
    shards hold, raises ``ValueError`` naming the shard file.
    """
    merged = heapq.merge(*(_keyed_lines(path, fmt) for path in paths))
    return _atomic_write(out_path, lambda handle: _write_merged(merged, handle, fmt))
