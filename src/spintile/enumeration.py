"""Systematic enumeration of spinor-pair quadruple families.

Walks integer spinor pairs a = (m1, n1), b = (m2, n2) over the box
[-bound, bound]^4 in lexicographic order, and emits one record per pair
carrying both curvature roots plus the canonical (sorted, gcd-reduced)
form of the quadruple, both from ``spintile.quadruples``.  Pairs with a
zero spinor are skipped unless ``include_zero`` is set: (a, 0) gives
(0, |a|², 0, |a|²) and (0, b) gives (|b|², 0, 0, |b|²), both of
canonical form the strip (0, 0, 1, 1), and (0, 0) gives all zeros.

Output is deterministic: the same job always produces byte-identical
files.  A sharded run owns whole rows: shard K of N holds every record
whose first spinor a has an |a|² assigned to K, in stream order, so a
merge of all shards reproduces the unsharded file exactly.  The
assignment depends only on the bound, ``include_zero`` and N: the
distinct norms go by descending number of box points on their circle,
then by ascending norm, each to the shard with the least load so far (in
points, the lowest index winning a tie).  One walk serves every job: it
skips the rows of other shards with one lookup each, and the
non-primitive pairs when ``primitive_only`` is set (a gcd-only test).
Every orbit key below has its |a|² in one shard only, so the shards of a
job build each tail once between them, as the unsharded walk does.

A record's tail, everything after its generators, is a function of the
orbit key (|a|², |b|², a·b, |a×b|): A = |b|² + a·b, B = |a|² + a·b,
C = −a·b and D1, D2 = |a|² + |b|² + a·b ± 2|a×b|, and the canonical form
and the primitive flag follow from those.  Turning both spinors a
quarter turn, or mirroring both, keeps the key, so along the stream each
tail comes about eight times (bound 6: 28,224 records, 3,492 keys).  The
walk goes a row of one first spinor at a time and caches one item per
key, which its view chooses.  The record view caches each tail and
wraps it in a ``QuadrupleRecord`` per record.  The line view, which
``write_stream`` takes for a stream of ``enumerate_records`` that no
record was drawn from, caches each formatted tail and writes each row
with one write, the first spinor formatted once a row; it builds no
record.  Records written from any other iterable go one by one, each
line formatted whole from that record's own values, with no cache.
The walk's cache is exact: the tail gives the key back (a·b = −C,
|a|² = B + C, |b|² = A + C and 2|a×b| = D1 − A − B − C), so two records
share an entry exactly when their tails are equal.  It stops inserting
at ``_CACHE_SIZE`` entries and makes the items it does not hold afresh,
and once it is full, a row whose |a|² no cached key has skips its
lookups.  Writing bound 16 through the line view peaks at about 15 MB
of traced memory, and draining its record view at about 28 MB (Python
3.11); every bound up to 10 (23,590 keys) fits, and so does each of 4
shards at bound 16 (about 36,000 keys of its own rows).

Each format is one line template, cut by ``_cut`` after its fourth
comma into a generator head and a tail, and the head once more after its
second comma for the line view; its writers and the grammar of
``read_records`` are made from it.

``write_records`` writes a shard of an undrawn stream, of a job with
more than one shard, beside a manifest ``PATH.json``: the job, the
shard, the record count, the sha256 of the file and a table of its rows,
each as its first spinor (m1, n1) and its length in bytes.
``merge_shards`` reads the manifests, refuses any set that is not one
whole job, and then copies whole rows in stream order, parsing no line:
each shard is read once, front to back, one row in memory at a time,
and hashed as it is read.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import heapq
import math
import os
import re
import tempfile
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple

from ._frozen import frozen
from .quadruples import canonical_form, pair_curvatures

CSV_HEADER = "m1,n1,m2,n2,A,B,C,D1,D2,canonical,primitive"


@frozen
class Shard:
    """Shard ``index`` of ``count``: the records whose first spinor's
    |a|² is one of the rows this shard owns, in stream order.  Rows go to
    shards by descending number of points, then ascending norm, each to
    the least-loaded shard so far, the lowest index winning a tie; see
    the module docstring."""

    index: int = 0
    count: int = 1

    def __post_init__(self) -> None:
        # ``type(...) is int`` refuses a float and a bool alike
        ints = type(self.index) is int and type(self.count) is int
        if not ints or self.count < 1 or not 0 <= self.index < self.count:
            raise ValueError(f"invalid shard {self.index!r}/{self.count!r}")


@frozen
class EnumerationJob:
    bound: int
    primitive_only: bool = False
    output_format: str = "csv"
    # a Shard is immutable, so every job may share this one
    shard: Shard = Shard()
    include_zero: bool = False

    def __post_init__(self) -> None:
        if type(self.bound) is not int or self.bound < 1:
            raise ValueError(f"bound must be an integer of at least 1, got {self.bound!r}")
        for name in ("primitive_only", "include_zero"):
            value = getattr(self, name)
            if type(value) is not bool:
                raise ValueError(f"{name} must be a bool, got {value!r}")
        _record_format(self.output_format)
        if not isinstance(self.shard, Shard):
            raise ValueError(f"shard must be a Shard, got {self.shard!r}")


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


def _tail(
    a: tuple[int, int, int], b: tuple[int, int, int]
) -> tuple[int, int, int, int, int, tuple[int, int, int, int], bool]:
    """The record fields after the generators, (A, B, C, D1, D2,
    canonical, primitive), of the pair of lattice points ``a`` and ``b``."""
    big_a, big_b, big_c, d1, d2 = pair_curvatures(a, b)
    return (big_a, big_b, big_c, d1, d2) + canonical_form(big_a, big_b, big_c, d1)


# the most entries the walk's tail cache holds; past it the walk stops
# inserting and makes the other items afresh
_CACHE_SIZE = 1 << 16


def _owned_norms(points: list[tuple[int, int, int]], shard: Shard) -> set[int]:
    """The |a|² of the rows that ``shard`` owns among the spinors
    ``points`` given as ``(m, n, m² + n²)``.

    The distinct norms go by descending point count, then ascending
    norm, each to the shard with the least load so far, the lowest index
    winning a tie.  Every shard that holds a row has a positive load, so
    while some shard holds none, the least-loaded one is the lowest of
    those: only the shards with a row enter the heap, and the cost is
    O(norms · log count) at any count."""
    sizes = collections.Counter(norm for _, _, norm in points)
    loads: list[tuple[int, int]] = []  # (load, index) of each shard with a row
    owned = set()
    for norm in sorted(sizes, key=lambda norm: (-sizes[norm], norm)):
        load, index = (0, len(loads)) if len(loads) < shard.count else heapq.heappop(loads)
        heapq.heappush(loads, (load + sizes[norm], index))
        if index == shard.index:
            owned.add(norm)
    return owned


# a lattice point of the box as (m, n, m² + n²)
_Point = tuple[int, int, int]


def _rows(
    job: EnumerationJob,
    make: Callable[[_Point, _Point], Any],
    label: Callable[[int, int], Any],
) -> Iterator[tuple[int, int, list]]:
    """The rows of the job's walk that its shard owns, in stream order:
    each first spinor a = (m1, n1) with the list of ``label(m2, n2) +
    make(a, b)`` for each second spinor b = (m2, n2) that the filter
    keeps, ``make`` taking each spinor as ``(m, n, m² + n²)``.  The item
    ``make(a, b)`` is cached under the pair's orbit key.

    The walk skips each row whose |a|² the shard does not own with one
    lookup (see ``_owned_norms``), and with ``primitive_only`` each pair
    that fails the gcd-only test.  The cache stops inserting at
    ``_CACHE_SIZE`` entries, and from then on a row whose |a|² has no
    cached key makes its items afresh without a lookup."""
    span = range(-job.bound, job.bound + 1)
    # the spinors of the box in lexicographic order
    spinors = [(m, n, m * m + n * n) for m in span for n in span if job.include_zero or m or n]
    owned = _owned_norms(spinors, job.shard)
    points = [(m, n, norm, label(m, n)) for m, n, norm in spinors]
    primitive_only = job.primitive_only
    gcd = math.gcd
    items: dict[tuple[int, int, int, int], Any] = {}
    get = items.get
    # the |a|² of the rows that had room to insert: once the cache is
    # full, a row of any other norm holds no cached key and skips the
    # lookups
    norms = set()
    for a in spinors:
        m1, n1, norm_a = a
        if norm_a not in owned:
            continue
        if len(items) < _CACHE_SIZE:
            norms.add(norm_a)
        cached = norm_a in norms
        row = []
        append = row.append
        for m2, n2, norm_b, tag in points:
            # |b|² = A + C, |a|² = B + C, a·b = −C and 2|a×b| = D1 − A − B − C,
            # so (A, B, C, D1) has the gcd of (|a|², |b|², a·b, 2 a×b); and
            # as (a·b)² + (a×b)² = |a|²|b|², a common factor of |a|², |b|²
            # and a·b divides a×b: the test needs no cross product, and
            # most pairs settle it on the norms alone
            if primitive_only:
                common = gcd(norm_a, norm_b)
                if common != 1 and gcd(common, m1 * m2 + n1 * n2) != 1:
                    continue
            if not cached:
                item = make(a, (m2, n2, norm_b))
            else:
                cross = m1 * n2 - m2 * n1
                key = (norm_a, norm_b, m1 * m2 + n1 * n2, cross if cross > 0 else -cross)
                item = get(key)
                if item is None:
                    item = make(a, (m2, n2, norm_b))
                    if len(items) < _CACHE_SIZE:
                        items[key] = item
            append(tag + item)
        if row:
            yield m1, n1, row


def _record_view(job: EnumerationJob) -> Iterator[QuadrupleRecord]:
    """The job's records: the walk's items are the record tails."""
    new = tuple.__new__
    for m1, n1, row in _rows(job, _tail, lambda m, n: (m, n)):
        head = (m1, n1)
        for rest in row:
            yield new(QuadrupleRecord, head + rest)


def _row_texts(job: EnumerationJob, template: str) -> Iterator[tuple[int, int, int, str]]:
    """The job's record lines in the line template ``template``, a row at
    a time: each first spinor (m1, n1) with its record count and the text
    of its lines.  The walk's items are the formatted tails, and the head
    of each line is cut once more, after its second comma: the first
    spinor's text is formatted once a row and each second spinor's once."""
    head, tail = _cut(template + "\n")
    first, second = _cut(head, 2)

    def text(a: _Point, b: _Point) -> str:
        return tail % _fields(a[:2] + b[:2] + _tail(a, b))[4:]

    for m1, n1, row in _rows(job, text, lambda m, n: second % (m, n)):
        start = first % (m1, n1)
        yield m1, n1, len(row), start + start.join(row)


class _Stream:
    """The records of a job, as ``enumerate_records`` returns them: an
    iterator that knows its job.  The record view is made when the
    stream is first iterated or drawn from, and iterating the stream
    iterates that view, so the records come at a generator's pace;
    ``write_stream`` writes a stream that was not yet iterated through
    the line view instead, and leaves it exhausted."""

    __slots__ = ("job", "_records")

    def __init__(self, job: EnumerationJob) -> None:
        self.job = job
        self._records: Iterator[QuadrupleRecord] | None = None

    def __iter__(self) -> Iterator[QuadrupleRecord]:
        if self._records is None:
            self._records = _record_view(self.job)
        return self._records

    def __next__(self) -> QuadrupleRecord:
        return next(iter(self))


def enumerate_records(job: EnumerationJob) -> Iterator[QuadrupleRecord]:
    """Stream records for the job, honoring its shard and filters.

    The shard owns whole rows: the walk skips each row whose |a|² it does
    not own with one lookup (see ``_owned_norms``) and builds every
    record of the rows it owns, or with ``primitive_only`` those that pass
    the gcd-only test.  Each takes its tail from the cache of its orbit
    key (|a|², |b|², a·b, |a×b|), whose |a|² no other shard owns.

    The stream is an iterator, not a generator.  Given to
    ``write_stream`` or ``write_records`` before any record is drawn, it
    is written row by row from a cache of formatted tails and builds no
    record at all.
    """
    return _Stream(job)


class RecordFormat(NamedTuple):
    """An output format: its header line ("" for none) and the template of
    a record line, neither with its newline.  The template's fourteen
    ``%s`` slots are m1 .. D2, the four canonical entries and the
    primitive flag, ``true`` or ``false``."""

    header: str
    template: str


# the jsonl line is what ``json.dumps(payload, separators=(",", ":"))``
# writes for the record
FORMATS = {
    "csv": RecordFormat(CSV_HEADER, "%s,%s,%s,%s,%s,%s,%s,%s,%s,%s:%s:%s:%s,%s"),
    "jsonl": RecordFormat(
        "",
        '{"m1":%s,"n1":%s,"m2":%s,"n2":%s,"A":%s,"B":%s,"C":%s,"D1":%s,"D2":%s,'
        '"canonical":[%s,%s,%s,%s],"primitive":%s}',
    ),
}


def _fields(record: QuadrupleRecord) -> tuple:
    """The fourteen values a line template writes for the record."""
    m1, n1, m2, n2, a, b, c, d1, d2, (w, x, y, z), primitive = record
    return (m1, n1, m2, n2, a, b, c, d1, d2, w, x, y, z, "true" if primitive else "false")


def _record_format(fmt: str) -> RecordFormat:
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    return FORMATS[fmt]


def _cut(template: str, commas: int = 4) -> tuple[str, str]:
    """A line template cut after its fourth comma, or its ``commas``-th:
    the head that writes the four generators and the tail that writes
    the rest.  No integer and no text of a head holds a comma of its
    own, so ``str.split(",", 4)`` cuts each line the template writes at
    the same place."""
    *heads, tail = template.split(",", commas)
    return ",".join(heads) + ",", tail


def write_stream(records: Iterable[QuadrupleRecord], handle: IO[str], fmt: str) -> int:
    """Write records to an open text handle; returns the record count.

    The stream of ``enumerate_records``, while no record has been drawn
    from it, is written through the walk's line view: the walk caches
    each formatted tail under its orbit key, and each row goes out in
    one write, its first spinor formatted once.  That builds no record
    and leaves the stream exhausted.

    Any other records, a drawn stream among them, are written one by
    one, each line ``template % _fields(record)``: a record's line
    depends on that record alone."""
    header, template = _record_format(fmt)
    write = handle.write
    if header:
        write(header + "\n")
    count = 0
    if type(records) is _Stream and records._records is None:
        records._records = iter(())
        for _, _, size, text in _row_texts(records.job, template):
            write(text)
            count += size
        return count
    line = template + "\n"
    for count, record in enumerate(records, 1):
        write(line % _fields(record))
    return count


# the layout of the manifest ``write_records`` writes beside a shard;
# ``merge_shards`` refuses a manifest of any other
_MANIFEST_VERSION = 1
# each field of a manifest with its type; all but the last four name the
# job, which every shard of a merge must share
_MANIFEST_FIELDS = {
    "version": int, "bound": int, "primitive_only": bool, "include_zero": bool, "format": str,
    "count": int, "index": int, "records": int, "sha256": str, "rows": list,
}
_JOB_FIELDS = tuple(_MANIFEST_FIELDS)[:-4]
_REWRITE = "rewrite it with enumerate --shard K/N --out F"


def write_records(records: Iterable[QuadrupleRecord], path: str, fmt: str) -> int:
    """Atomic file write: land fully or not at all (temp file + rename).

    A stream of ``enumerate_records`` that no record was drawn from,
    whose job has more than one shard, is a shard file: it is written
    through the line view, with the same bytes as ``write_stream``
    writes, and each row hashed and listed as ``[m1, n1, byte length]``
    as it goes out.  Once the file has landed, its manifest lands beside
    it as ``PATH.json``, which ``merge_shards`` needs.  Other records
    are written by ``write_stream``, with no manifest."""
    if type(records) is not _Stream or records._records is not None or records.job.shard.count == 1:
        return _atomic_write(path, lambda handle: write_stream(records, handle, fmt))
    import hashlib
    import json

    job = records.job
    records._records = iter(())
    header, template = _record_format(fmt)
    digest = hashlib.sha256()
    rows = []

    def write(handle: IO[bytes]) -> int:
        data = (header + "\n").encode() if header else b""
        handle.write(data)
        digest.update(data)
        count = 0
        for m1, n1, size, text in _row_texts(job, template):
            data = text.encode()
            handle.write(data)
            digest.update(data)
            rows.append([m1, n1, len(data)])
            count += size
        return count

    count = _atomic_write(path, write, binary=True)
    shard = job.shard
    values = (_MANIFEST_VERSION, job.bound, job.primitive_only, job.include_zero, fmt, shard.count,
              shard.index, count, digest.hexdigest(), rows)
    text = json.dumps(dict(zip(_MANIFEST_FIELDS, values)), separators=(",", ":")) + "\n"
    _atomic_write(path + ".json", lambda handle: handle.write(text))
    return count


def _atomic_write(path: str, write: Callable[[IO[Any]], int], binary: bool = False) -> int:
    """Run ``write`` on a temp file beside ``path``, opened as text or
    with ``binary`` as bytes, and rename it into place; on any failure
    the temp file is removed.  Returns what ``write`` returns.  When the
    temp file cannot be made or renamed, the ``OSError`` names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(descriptor, "wb") if binary else open(descriptor, "w", newline="") as handle:
            count = write(handle)
        try:
            os.replace(temp_path, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return count


# an integer slot and the flag slot of a line template, as grammars
_INT, _FLAG = "(0|-?[1-9][0-9]*)", "(true|false)"


@functools.cache
def _line_grammar(fmt: str) -> re.Pattern[str]:
    """The compiled grammar of the format's record line, newline included:
    its template with each integer slot a group of one integer (groups
    1-13) and the flag slot the group ``(true|false)`` (group 14).
    Compiled on first use, so that importing the package (every CLI
    call) does not pay for it."""
    template = _record_format(fmt).template + "\n"
    ints = template.count("%s") - 1
    return re.compile(re.escape(template).replace("%s", _INT, ints).replace("%s", _FLAG))


def _read_header(handle: IO[str], path: str, fmt: str) -> int:
    """Read past the header line of a file of a format that has one, and
    the blank lines before it; returns the number of lines read."""
    header = _record_format(fmt).header
    if not header:
        return 0
    for number, line in enumerate(handle, 1):
        if line.strip():
            if line.rstrip("\n") == header:
                return number
            break
    raise ValueError(f"{path} does not start with the expected {fmt} header")


def read_records(path: str, fmt: str) -> list[QuadrupleRecord]:
    """The records of a file whose lines are spelled exactly as
    ``enumerate`` writes them.

    Blank lines are skipped, and a file of a format with a header line
    must start with it.  Any other line raises ``ValueError`` naming the
    file and the line.  A byte that is not UTF-8 reads as a lone
    surrogate, which the grammar refuses, so its line is refused by
    number like any other misspelt line."""
    fullmatch = _line_grammar(fmt).fullmatch
    records = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape", newline="") as handle:
        for number, line in enumerate(handle, _read_header(handle, path, fmt) + 1):
            found = fullmatch(line)
            if found is None:
                if line.strip():
                    raise ValueError(
                        f"{path}, line {number}: not a {fmt} record line as enumerate "
                        f"writes it: {line!r}"
                    )
                continue
            *values, primitive = found.groups()
            m1, n1, m2, n2, a, b, c, d1, d2, w, x, y, z = map(int, values)
            records.append(
                QuadrupleRecord(m1, n1, m2, n2, a, b, c, d1, d2, (w, x, y, z), primitive == "true")
            )
    return records


def _read_manifest(path: str) -> dict[str, Any]:
    """The manifest ``PATH.json`` of the shard file ``path``, each field
    of its type and each row three ints, the last positive."""
    import json

    try:
        with open(path + ".json", "rb") as handle:
            manifest = json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"{path} has no manifest {path}.json: {_REWRITE}") from None
    except ValueError:  # not UTF-8, or not JSON
        manifest = None
    if not (
        type(manifest) is dict
        and manifest.keys() == _MANIFEST_FIELDS.keys()
        and all(type(manifest[name]) is kind for name, kind in _MANIFEST_FIELDS.items())
        and all(
            type(row) is list and len(row) == 3 and all(type(value) is int for value in row)
            and row[2] > 0
            for row in manifest["rows"]
        )
    ):
        raise ValueError(f"{path}.json is not a shard manifest as enumerate writes it")
    return manifest


def _merge_plan(paths: list[str], fmt: str) -> tuple[list[dict[str, Any]], list[tuple[int, ...]]]:
    """The manifests of the shard files ``paths`` and all their rows in
    stream order, each as ``(m1, n1, shard, byte length)`` with ``shard``
    its file's position in ``paths``.  Raises ``ValueError`` naming a
    shard file unless the manifests make up one whole job written in
    ``fmt``, each listing its rows in stream order, no row listed twice."""
    if not paths:
        raise ValueError("no shard files to merge")
    manifests = [_read_manifest(path) for path in paths]
    first = manifests[0]
    given: dict[int, str] = {}
    plan = []
    for shard, (path, manifest) in enumerate(zip(paths, manifests)):
        if manifest["version"] != _MANIFEST_VERSION:
            raise ValueError(
                f"{path}.json is a manifest of version {manifest['version']}, not "
                f"{_MANIFEST_VERSION}: {_REWRITE}"
            )
        if manifest["format"] != fmt:
            raise ValueError(f"{path} is a {manifest['format']!r} shard, not {fmt!r}")
        other = ", ".join(
            f"{name} {manifest[name]!r}" for name in _JOB_FIELDS if manifest[name] != first[name]
        )
        if other:
            raise ValueError(f"{path} is a shard of another job than {paths[0]}: {other}")
        index, count = manifest["index"], manifest["count"]
        if not 0 <= index < count:
            raise ValueError(f"{path}.json names shard {index} of {count}")
        if index in given:
            raise ValueError(f"{path} is shard {index} of {count}, as {given[index]} is")
        given[index] = path
        keys = [row[:2] for row in manifest["rows"]]
        if any(key >= after for key, after in zip(keys, keys[1:])):
            raise ValueError(f"{path}.json lists its rows out of stream order")
        plan += [(m1, n1, shard, size) for m1, n1, size in manifest["rows"]]
    if len(given) < first["count"]:
        missing = next(index for index in range(first["count"]) if index not in given)
        raise ValueError(f"shard {missing} of {first['count']} is missing from {', '.join(paths)}")
    plan.sort()
    for row, after in zip(plan, plan[1:]):
        if row[:2] == after[:2]:
            raise ValueError(
                f"{paths[after[2]]} holds the row of first spinor {row[:2]}, as "
                f"{paths[row[2]]} does"
            )
    return manifests, plan


def merge_shards(paths: Iterable[str], out_path: str, fmt: str) -> int:
    """Merge shard files back into the unsharded stream order; returns
    the record count.

    Each shard file needs the manifest ``PATH.json`` that
    ``write_records`` writes beside it.  The set is refused unless the
    manifests name one job (version, bound, filters and shard count),
    written in ``fmt``, and hold the shard indexes 0 .. N-1 once each.
    The rows of all the shards are then copied whole in stream order,
    which reproduces a single-shard run of the same job byte for byte.
    Each file is read once, front to back, with one row in memory, and
    hashed as it is read; no line is parsed.  Refused, too: a row that
    two shards hold; a file whose size is not its header's and its rows'
    lengths together; a row whose first or last line does not start with
    its first spinor's text, or that does not end in a newline; a sha256
    or a record count (its newlines) other than its manifest's.  Every
    refusal is a ``ValueError`` naming a shard file, and leaves no merged
    file behind."""
    header, template = _record_format(fmt)
    paths = list(paths)
    manifests, plan = _merge_plan(paths, fmt)
    head = (header + "\n").encode() if header else b""
    first = _cut(template, 2)[0]

    def copy(handle: IO[bytes]) -> int:
        import hashlib

        with contextlib.ExitStack() as stack:
            files = [stack.enter_context(open(path, "rb")) for path in paths]
            for path, file, manifest in zip(paths, files, manifests):
                size = os.fstat(file.fileno()).st_size
                listed = len(head) + sum(row[2] for row in manifest["rows"])
                if size != listed:
                    raise ValueError(
                        f"{path} holds {size} bytes, not the {listed} its manifest lists"
                    )
            # each file's header is hashed as read, and written once
            digests = [hashlib.sha256(file.read(len(head))) for file in files]
            handle.write(head)
            newlines = [0] * len(paths)
            for m1, n1, shard, size in plan:
                row = files[shard].read(size)
                start = (first % (m1, n1)).encode()
                last = row.rfind(b"\n", 0, -1) + 1  # where the row's last line starts
                whole = row.endswith(b"\n") and row.startswith(start)
                if not (whole and row.startswith(start, last)):
                    at = files[shard].tell() - len(row)
                    raise ValueError(
                        f"{paths[shard]}: the {size} bytes at byte {at} are not the row of "
                        f"first spinor ({m1}, {n1}) that its manifest lists"
                    )
                digests[shard].update(row)
                newlines[shard] += row.count(b"\n")
                handle.write(row)
            for path, digest, lines, manifest in zip(paths, digests, newlines, manifests):
                if digest.hexdigest() != manifest["sha256"]:
                    raise ValueError(f"{path} does not have the sha256 its manifest lists")
                if lines != manifest["records"]:
                    raise ValueError(
                        f"{path} holds {lines} records, not the {manifest['records']} its "
                        "manifest lists"
                    )
        return sum(newlines)

    return _atomic_write(out_path, copy, binary=True)
