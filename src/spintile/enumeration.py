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
Every first-spinor orbit below has its |a|² in one shard only, so the
shards of a job make each tail once between them, as the unsharded walk
does.

A record's tail, everything after its generators, is a function of
(|a|², |b|², a·b, |a×b|): A = |b|² + a·b, B = |a|² + a·b, C = −a·b and
D1, D2 = |a|² + |b|² + a·b ± 2|a×b|, and the canonical form and the
primitive flag follow from those.  Turning both spinors a quarter turn,
or mirroring both (the eight symmetries g of the square lattice), keeps
all four, as (g·a)·b = a·(g⁻¹·b) and |g·a × b| = |a × g⁻¹·b|.  So the row
of a first spinor g·a holds the items of the row of a, permuted: the
walk makes items only in the first row of each first-spinor orbit (its
first image in stream order), once for each distinct (|b|², a·b, |a×b|)
of that row, and each later image takes its row by an index permutation
of that one, made once a walk for each symmetry.  An orbit's row is
held from its first image to its last: bound 6 has 27 orbits and makes
3,519 items for its 28,224 records.  The view chooses the item.  The
record view, which each iteration of a stream of ``enumerate_records``
walks afresh, makes each tail and wraps it in a ``QuadrupleRecord`` per
record.  The line view, which ``_write`` takes for such a stream, makes
each formatted tail in one step from the values of ``_tail``, keeps a
row's second-spinor labels apart from its items, and builds no record.
Records written from any other iterable make a row of each run whose
first spinors format to the same text, each line formatted from that
record's own values, with no shared item.  The walk's memory grows
with the bound, as every orbit's row is held at the middle of the
stream: writing bound 16 through the line view peaks at about 15 MB of
traced memory, and draining its record view at about 40 MB (Python
3.11).

Each format is one line template, cut by ``_cut`` after its fourth
comma into a generator head and a tail, and the head once more after its
second comma; its writer and the grammar of ``read_records`` are made
from it.

One writer, ``_write``, writes the header and then each row of every
output with one write of one join: the first spinor's text interleaved
with each line's second-spinor text and tail, three strings a line, and
no two strings added.  ``write_stream`` writes to an open handle, and
``write_records`` to a file, each text encoded as UTF-8 once and written
as bytes.  ``write_records`` writes a stream of a job with more than one
shard beside a manifest ``PATH.json``: the job, the shard, the record
count, the sha256 of the file and a table of its rows, each as its first
spinor (m1, n1) and its length in bytes, as ``_write`` returns them.
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
import itertools
import math
import operator
import os
import re
import tempfile
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

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


# the eight symmetries of the square lattice, each as (p, q, r, s): it
# takes (m, n) to (p m + q n, r m + s n)
_SYMMETRIES = (
    (1, 0, 0, 1), (0, -1, 1, 0), (-1, 0, 0, -1), (0, 1, -1, 0),
    (1, 0, 0, -1), (-1, 0, 0, 1), (0, 1, 1, 0), (0, -1, -1, 0),
)


def _images(spinors: list[_Point]) -> list[list[int]]:
    """For each symmetry g of ``_SYMMETRIES``, the index in ``spinors`` of
    g·x for each spinor x of ``spinors``, a box symmetric under all
    eight, so that each table is a permutation of its indexes."""
    index = {(m, n): i for i, (m, n, _) in enumerate(spinors)}
    return [
        [index[p * m + q * n, r * m + s * n] for m, n, _ in spinors] for p, q, r, s in _SYMMETRIES
    ]


def _rows(
    job: EnumerationJob,
    make: Callable[[_Point, _Point], Any],
    label: Callable[[int, int], Any],
) -> Iterator[tuple[int, int, Sequence, Sequence]]:
    """The rows of the job's walk that its shard owns, in stream order,
    each with at least one pair: each first spinor a = (m1, n1) with two
    sequences of equal length, the ``label(m2, n2)`` and the ``make(a,
    b)`` of each second spinor b = (m2, n2) that the filter keeps,
    ``make`` taking each spinor as ``(m, n, m² + n²)``.  Neither is
    added to the other: each view joins them as it needs.

    The walk skips each row whose |a|² the shard does not own with one
    lookup (see ``_owned_norms``), and with ``primitive_only`` each pair
    that fails the gcd-only test.  It makes items only in the row of the
    first image a₀ of each first-spinor orbit, once for each distinct
    (|b|², a₀·b, |a₀×b|) of that row, ``None`` for a dropped pair.  Every
    later image a, with h·a = a₀ for a symmetry h, takes the item of b
    from the position of h·b in that row: h keeps dot and cross products
    up to sign, and so the items and the gcd-only test.  Each spinor's
    place in its orbit is found once a walk, and an orbit's row is held,
    one list, from its first image to its last."""
    span = range(-job.bound, job.bound + 1)
    # the spinors of the box in lexicographic order
    spinors = [(m, n, m * m + n * n) for m in span for n in span if job.include_zero or m or n]
    owned = _owned_norms(spinors, job.shard)
    tags = [label(m, n) for m, n, _ in spinors]
    images = _images(spinors)
    # each symmetry h permutes a held row to the row of h⁻¹·a₀
    moves = [operator.itemgetter(*image) for image in images]
    # each spinor a's place in its orbit: the index of the orbit's first
    # image a₀, the index of its last, and the move of the h with h·a = a₀
    orbits = list(zip(*images))
    firsts = list(map(min, orbits))
    places = zip(firsts, map(max, orbits), map(moves.__getitem__, map(tuple.index, orbits, firsts)))
    primitive_only = job.primitive_only
    gcd = math.gcd
    # each orbit's first row by its first image's index: one list, None for a dropped pair
    held: dict[int, list[Any]] = {}
    for i, (a, (first, last, move)) in enumerate(zip(spinors, places)):
        m1, n1, norm_a = a
        if norm_a not in owned:
            continue
        if first == i:
            items = []
            made: dict[tuple[int, int, int], Any] = {}
            for b in spinors:
                m2, n2, norm_b = b
                dot = m1 * m2 + n1 * n2
                # |b|² = A + C, |a|² = B + C, a·b = −C and 2|a×b| = D1 − A − B − C,
                # so (A, B, C, D1) has the gcd of (|a|², |b|², a·b, 2 a×b); and
                # as (a·b)² + (a×b)² = |a|²|b|², a common factor of |a|², |b|²
                # and a·b divides a×b: the test needs no cross product, and
                # most pairs settle it on the norms alone
                if primitive_only:
                    common = gcd(norm_a, norm_b)
                    if common != 1 and gcd(common, dot) != 1:
                        items.append(None)
                        continue
                cross = m1 * n2 - m2 * n1
                key = (norm_b, dot, cross if cross > 0 else -cross)
                item = made.get(key)
                if item is None:
                    item = made[key] = make(a, b)
                items.append(item)
            if i != last:
                held[i] = items
        else:
            items = move(held.pop(first) if i == last else held[first])
        labels = tags
        if primitive_only:
            # a kept item is a ``_tail`` tuple or a formatted line, never
            # empty, so the items are their own mask
            labels = list(itertools.compress(tags, items))
            items = list(itertools.compress(items, items))
        if items:
            yield m1, n1, labels, items


def _record_view(job: EnumerationJob) -> Iterator[QuadrupleRecord]:
    """The job's records: the walk's items are the record tails."""
    new = tuple.__new__
    for m1, n1, tags, items in _rows(job, _tail, lambda m, n: (m, n)):
        head = (m1, n1)
        for tag, rest in zip(tags, items):
            yield new(QuadrupleRecord, head + tag + rest)


class _Stream:
    """The records of a job, as ``enumerate_records`` returns them: a view
    of its job, as ``range`` is of its numbers.  Each iteration walks the
    job afresh through the record view; ``write_stream`` writes the whole
    job through the line view instead."""

    __slots__ = ("job",)

    def __init__(self, job: EnumerationJob) -> None:
        self.job = job

    def __iter__(self) -> Iterator[QuadrupleRecord]:
        return _record_view(self.job)


def enumerate_records(job: EnumerationJob) -> Iterable[QuadrupleRecord]:
    """Stream records for the job, honoring its shard and filters.

    The shard owns whole rows: the walk skips each row whose |a|² it does
    not own with one lookup (see ``_owned_norms``) and builds every
    record of the rows it owns, or with ``primitive_only`` those that pass
    the gcd-only test.  The tails are made in the first row of each
    first-spinor orbit, all of whose images have the same |a|², and each
    later row of the orbit takes them by an index permutation.

    The stream is a re-iterable view of the job, not an iterator: each
    ``iter`` of it walks the whole job again.  Given to ``write_stream``
    or ``write_records``, it is written whole, row by row from the
    formatted tails of each orbit, and builds no record at all.
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


def _write(records: Iterable[QuadrupleRecord], fmt: str, write: Callable[[str], int]) -> tuple[int, list]:
    """Write the format's header and then the records through ``write``,
    one ``write`` a row; returns the record count and the rows, each
    ``[m1, n1, what write returned]``.  A row is one join of the first
    spinor's text interleaved with each line's second-spinor text and
    tail.  A stream of ``enumerate_records`` takes its rows from the
    walk's line view and builds no record.  Any other records make a row
    of each run whose first spinors format to the same text, each line
    formatted from that record's own ``_fields``."""
    header, template = _record_format(fmt)
    head, tail = _cut(template + "\n")
    first, second = _cut(head, 2)
    if header:
        write(header + "\n")
    if type(records) is _Stream:

        def text(a: _Point, b: _Point) -> str:
            big_a, big_b, big_c, d1, d2, (w, x, y, z), primitive = _tail(a, b)
            return tail % (big_a, big_b, big_c, d1, d2, w, x, y, z, "true" if primitive else "false")

        rows = _rows(records.job, text, lambda m, n: second % (m, n))
    else:
        # keyed by text, not value: -1.0 == -1, but each is written as spelled
        runs = (list(run) for _, run in itertools.groupby(map(_fields, records), lambda f: first % f[:2]))
        rows = ((*run[0][:2], [second % f[2:4] for f in run], [tail % f[4:] for f in run]) for run in runs)
    count, sizes = 0, []
    for m1, n1, tags, items in rows:
        parts = [first % (m1, n1)] * (3 * len(items))
        parts[1::3] = tags
        parts[2::3] = items
        sizes.append([m1, n1, write("".join(parts))])
        count += len(items)
    return count, sizes


def write_stream(records: Iterable[QuadrupleRecord], handle: IO[str], fmt: str) -> int:
    """Write records to an open text handle with ``_write``, one
    ``write`` a row; returns the record count."""
    return _write(records, fmt, handle.write)[0]


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

    ``_write`` on the temp file, each row's text encoded as UTF-8 once
    and written as bytes: the bytes ``write_stream`` writes.  A stream of
    ``enumerate_records`` whose job has more than one shard is a shard
    file: each text is hashed as it goes out too, and once the file has
    landed, its manifest lands beside it as ``PATH.json``, which
    ``merge_shards`` needs, listing the rows ``_write`` returns.  Other
    records get no manifest."""
    sharded = type(records) is _Stream and records.job.shard.count > 1
    if sharded:
        import hashlib
        import json

        digest = hashlib.sha256()

    def put(handle: IO[bytes]) -> tuple[int, list]:
        def write(text: str) -> int:
            data = text.encode()
            if sharded:
                digest.update(data)
            return handle.write(data)

        return _write(records, fmt, write)

    count, rows = _atomic_write(path, put)
    if sharded:
        job, shard = records.job, records.job.shard
        values = (_MANIFEST_VERSION, job.bound, job.primitive_only, job.include_zero, fmt, shard.count,
                  shard.index, count, digest.hexdigest(), rows)
        data = (json.dumps(dict(zip(_MANIFEST_FIELDS, values)), separators=(",", ":")) + "\n").encode()
        _atomic_write(path + ".json", lambda handle: handle.write(data))
    return count


def _atomic_write(path: str, write: Callable[[IO[bytes]], Any]) -> Any:
    """Run ``write`` on a temp file beside ``path``, opened for bytes, and
    rename it into place; on any failure the temp file is removed.
    Returns what ``write`` returns.  When the temp file cannot be made or
    renamed, the ``OSError`` names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with open(descriptor, "wb") as handle:
            result = write(handle)
        try:
            os.replace(temp_path, path)
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None
    except BaseException:
        if os.path.exists(temp_path):
            os.unlink(temp_path)
        raise
    return result


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
    except (RecursionError, ValueError):  # not UTF-8, not JSON, or nested too deep to read
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
    file behind.  Before any of these, an ``out_path`` that is one of the
    shard files or one of their manifests, as ``os.path.samefile`` tells,
    is refused with a ``ValueError`` naming it, and nothing is written:
    the merge would replace that file."""
    header, template = _record_format(fmt)
    paths = list(paths)
    if os.path.exists(out_path):
        for path in paths:
            for name, what in ((path, "shard file"), (path + ".json", "manifest of the shard file")):
                if os.path.exists(name) and os.path.samefile(out_path, name):
                    raise ValueError(f"merging into {out_path} would replace the {what} {path}")
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

    return _atomic_write(out_path, copy)
