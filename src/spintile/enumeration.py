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
Shard files written by versions that dealt records round-robin hold
other records, and must not be merged with files written since: the
merge cannot detect a record that no file holds.

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
second comma for the line view; its writers and grammars are made from
it.  ``merge_shards`` merges by runs: from the shard with the least
head it copies, in one write, every line below the next shard's head,
which is at least every record of one first spinor.  It checks each
line's spelling and order, not its values: a line must be spelled as
this module writes it (no added spaces, extra keys or other spellings
of a value), but a record whose numbers were edited still merges.  The
lines are copied through unchanged.  Each distinct piece is checked
once: a line splits where its template was cut, its four generator
pieces are looked up in a dict per position and its tail in a set.  A generator miss, at most 2·bound + 1 per position, matches
the whole line by the grammar ``read_records`` uses, and a tail miss the
tail by its own grammar.  The keys must strictly increase along each
shard, and no two shards may hold the same one.  Memory holds one block
of whole lines per shard and the caches, which stop growing at
``_CACHE_SIZE`` entries each, so it is flat in the stream length.
"""

from __future__ import annotations

import bisect
import collections
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


# the most entries the walk's tail cache and each of the merge's piece
# caches hold; past it they stop inserting and make or check the other
# items afresh
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


def _write_rows(job: EnumerationJob, handle: IO[str], template: str) -> int:
    """Write the job's record lines in the line template ``template``,
    one ``write`` a row; returns the record count.  The walk's items are
    the formatted tails, and the head of each line is cut once more,
    after its second comma: the first spinor's text is formatted once a
    row and each second spinor's once."""
    head, tail = _cut(template + "\n")
    first, second = _cut(head, 2)

    def text(a: _Point, b: _Point) -> str:
        return tail % _fields(a[:2] + b[:2] + _tail(a, b))[4:]

    write = handle.write
    count = 0
    for m1, n1, row in _rows(job, text, lambda m, n: second % (m, n)):
        start = first % (m1, n1)
        write(start + start.join(row))
        count += len(row)
    return count


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
    if header:
        handle.write(header + "\n")
    if type(records) is _Stream and records._records is None:
        records._records = iter(())
        return _write_rows(records.job, handle, template)
    line = template + "\n"
    write = handle.write
    count = 0
    for count, record in enumerate(records, 1):
        write(line % _fields(record))
    return count


def write_records(records: Iterable[QuadrupleRecord], path: str, fmt: str) -> int:
    """Atomic file write: land fully or not at all (temp file + rename)."""
    return _atomic_write(path, lambda handle: write_stream(records, handle, fmt))


def _atomic_write(path: str, write: Callable[[IO[str]], int]) -> int:
    """Run ``write`` on a temp file beside ``path`` and rename it into
    place; on any failure the temp file is removed.  Returns what
    ``write`` returns.  When the temp file cannot be made or renamed,
    the ``OSError`` names ``path``."""
    directory = os.path.dirname(os.path.abspath(path))
    try:
        descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".part")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with os.fdopen(descriptor, "w", newline="") as handle:
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


def _compile(template: str) -> re.Pattern[str]:
    """The compiled grammar of a line template or its tail: each slot a
    group, of one integer, or of ``true`` or ``false`` for the last."""
    ints = template.count("%s") - 1
    return re.compile(re.escape(template).replace("%s", _INT, ints).replace("%s", _FLAG))


@functools.cache
def _line_grammar(fmt: str) -> re.Pattern[str]:
    """The compiled grammar of the format's record line, newline included:
    its template with each integer slot a group of one integer (groups
    1-13) and the flag slot the group ``(true|false)`` (group 14).
    Compiled on first use, so that importing the package (every CLI
    call) does not pay for it."""
    return _compile(_record_format(fmt).template + "\n")


@functools.cache
def _tail_grammar(fmt: str) -> re.Pattern[str]:
    """The compiled grammar of the tail ``_cut`` cuts from the format's
    record line, newline included.  Compiled on first use."""
    return _compile(_cut(_record_format(fmt).template + "\n")[1])


def _open_records(path: str) -> IO[str]:
    """A record file opened to read its lines as written.  A byte that is
    not UTF-8 reads as a lone surrogate, which no grammar accepts, so its
    line is refused by number like any other misspelt line."""
    return open(path, "r", encoding="utf-8", errors="surrogateescape", newline="")


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


def _not_a_record(path: str, number: int, fmt: str, line: str) -> ValueError:
    return ValueError(
        f"{path}, line {number}: not a {fmt} record line as enumerate writes it: {line!r}"
    )


_Key = tuple[int, int, int, int]


def _out_of_order(path: str, key: _Key) -> ValueError:
    return ValueError(
        f"{path} breaks the stream order at generators {key}: a record out of "
        "order, or one that another shard also holds"
    )


def _record_lines(path: str, fmt: str) -> Iterator[tuple[re.Match[str], str]]:
    """Each record line of a file with its grammar match.

    Blank lines are skipped, and a file of a format with a header line
    must start with it.
    Any other line not spelled exactly as ``enumerate`` writes it raises
    ``ValueError`` naming the file and the line.
    """
    fullmatch = _line_grammar(fmt).fullmatch
    with _open_records(path) as handle:
        for number, line in enumerate(handle, _read_header(handle, path, fmt) + 1):
            found = fullmatch(line)
            if found is None:
                if line.strip():
                    raise _not_a_record(path, number, fmt, line)
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


# the characters of whole lines that ``merge_shards`` reads from a shard
# at a time
_READ_HINT = 1 << 16


class _PieceCheck:
    """The generator keys of record lines, each distinct piece of a line
    checked against a grammar once.

    ``str.split(",", 4)`` cuts a line where ``_cut`` cuts its template.
    Each generator piece is looked up in the dict of its position, from
    its text to its integer, and the tail in the set of accepted tails.
    A line that misses a dict is matched whole by ``_line_grammar``, and
    a tail that misses the set by ``_tail_grammar``; what they accept is
    inserted while its dict or the set holds under ``_CACHE_SIZE``."""

    def __init__(self, fmt: str) -> None:
        self.fmt = fmt
        self.values: tuple[dict[str, int], ...] = ({}, {}, {}, {})
        self.tails: set[str] = set()

    def keys(
        self, block: list[str], path: str, number: int, previous: _Key | tuple[()]
    ) -> tuple[list[_Key], list[str]]:
        """The generator keys of the record lines of ``block``, lines
        ``number + 1`` on of ``path``, and those lines, without the blank
        ones.  Raises ``ValueError`` naming the file and the line for any
        other line not spelled as ``enumerate`` writes it, and naming the
        file for a key that is not above the one before it (``previous``
        for the first)."""
        v0, v1, v2, v3 = self.values
        tails = self.tails
        tail_match = _tail_grammar(self.fmt).fullmatch
        keys: list[_Key] = []
        append = keys.append
        blank = False
        for number, line in enumerate(block, number + 1):
            try:
                p0, p1, p2, p3, tail = line.split(",", 4)
                key = (v0[p0], v1[p1], v2[p2], v3[p3])
            except (KeyError, ValueError):
                checked = self._generators(line, path, number)
                if checked is None:
                    blank = True
                    continue
                key, tail = checked
            if tail not in tails:
                if tail_match(tail) is None:
                    raise _not_a_record(path, number, self.fmt, line)
                if len(tails) < _CACHE_SIZE:
                    tails.add(tail)
            if key <= previous:
                raise _out_of_order(path, key)
            append(key)
            previous = key
        if blank:
            block = [line for line in block if line.strip()]
        return keys, block

    def _generators(self, line: str, path: str, number: int) -> tuple[_Key, str] | None:
        """The key and the tail of a line that missed a generator dict,
        matched whole and its generator pieces cached, or ``None`` for a
        blank line."""
        found = _line_grammar(self.fmt).fullmatch(line)
        if found is None:
            if line.strip():
                raise _not_a_record(path, number, self.fmt, line)
            return None
        *pieces, tail = line.split(",", 4)
        key = tuple(map(int, found.group(1, 2, 3, 4)))
        for values, piece, value in zip(self.values, pieces, key):
            if len(values) < _CACHE_SIZE:
                values[piece] = value
        return key, tail


def _blocks(path: str, check: _PieceCheck) -> Iterator[tuple[list[_Key], list[str]]]:
    """A shard's record lines with their keys, ``_READ_HINT`` characters
    of whole lines at a time, each block with at least one record; the
    keys strictly increase along the file."""
    with _open_records(path) as handle:
        number = _read_header(handle, path, check.fmt)
        previous: _Key | tuple[()] = ()
        while block := handle.readlines(_READ_HINT):
            keys, lines = check.keys(block, path, number, previous)
            number += len(block)
            if keys:
                previous = keys[-1]
                yield keys, lines


def _merge_runs(paths: list[str], handle: IO[str], fmt: str) -> int:
    """Write the merged records of the shard files ``paths``, run by run;
    returns the record count."""
    header = _record_format(fmt).header
    if header:
        handle.write(header + "\n")
    check = _PieceCheck(fmt)
    shards = [_blocks(path, check) for path in paths]
    try:
        # the block of each shard and the position of its head in it
        current: list[tuple[list[_Key], list[str], int]] = []
        heap = []  # (head key, index) of each shard with records left
        for index, shard in enumerate(shards):
            keys, lines = next(shard, ([], []))
            current.append((keys, lines, 0))
            if keys:
                heap.append((keys[0], index))
        heapq.heapify(heap)
        write = handle.write
        count = 0
        while heap:
            key, index = heapq.heappop(heap)
            keys, lines, start = current[index]
            if heap:
                # equal heads pop by index, so ``other`` comes later in paths
                bound, other = heap[0]
                if bound == key:
                    raise _out_of_order(paths[other], key)
                end = bisect.bisect_left(keys, bound, start)
            else:
                end = len(keys)
            write("".join(lines[start:end]))
            count += end - start
            if end == len(keys):
                keys, lines = next(shards[index], ([], []))
                if not keys:
                    continue
                end = 0
            current[index] = keys, lines, end
            heapq.heappush(heap, (keys[end], index))
        return count
    finally:
        for shard in shards:
            shard.close()


def merge_shards(paths: Iterable[str], out_path: str, fmt: str) -> int:
    """Merge shard files back into the unsharded stream order.

    The stream is lexicographic in the generator tuple and every shard
    file holds its records in stream order, as ``enumerate_records``
    writes them, so merging the shards on the generator tuple reproduces
    a single-shard run of the same job byte for byte.  The merge goes by
    runs: from the shard with the least head it copies, with one write,
    every line whose generator tuple is below the next shard's head,
    which is at least every record of one first spinor a, as a shard
    owns whole |a|² rows.  Each shard is read in blocks of whole lines,
    so memory holds one block per shard and the bounded caches of
    ``_PieceCheck``, flat in the stream length.

    Each line must be spelled exactly as ``enumerate`` writes it, and is
    copied through unchanged; each distinct generator piece and tail is
    checked against a grammar once.  The generator tuples must strictly
    increase along each shard, and no two shards may hold the same one,
    so a shard out of order, or a record that two shards hold, raises
    ``ValueError`` naming the shard file (the later one in ``paths``).
    """
    paths = list(paths)
    return _atomic_write(out_path, lambda handle: _merge_runs(paths, handle, fmt))
