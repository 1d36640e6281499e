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
walk caches each tail it computes under its key, and the writer caches
each formatted tail under the record's own values.  Both are exact: the
tail gives the key back (a·b = −C, |a|² = B + C, |b|² = A + C and
2|a×b| = D1 − A − B − C), so two records share an entry exactly when
their tails are equal.  Each cache stops inserting at ``_CACHE_SIZE``
entries and computes the tails it does not hold afresh, and once the
walk's is full, a row whose |a|² no cached key has skips its lookups.
Full, the two take about 40 MB (bound 16 on Python 3.11); every bound up
to 10 (23,590 keys) fits, and so does each of 4 shards at bound 16
(about 36,000 keys of its own rows).

Each format is one line template, cut once by ``_cut`` after its fourth
comma into a generator head and a tail; its writer and grammars are made
from it.  ``merge_shards`` merges by runs: from the shard with the least
head it copies, in one write, every line below the next shard's head,
which is at least every record of one first spinor.  It accepts exactly
the lines this module writes (no added spaces, extra keys or other
spellings of a value) and copies them through unchanged.  Each distinct
piece is checked once: a line splits where its template was cut, its
four generator pieces are looked up in a dict per position and its tail
in a set.  A generator miss, at most 2·bound + 1 per position, matches
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
from typing import IO, Callable, Iterable, Iterator, NamedTuple

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


def _record(a: tuple[int, int, int], b: tuple[int, int, int]) -> QuadrupleRecord:
    """The record of the pair of lattice points ``a`` and ``b``."""
    return QuadrupleRecord(a[0], a[1], b[0], b[1], *_tail(a, b))


# the most entries the walk's and the writer's tail caches each hold;
# past it they stop inserting and compute the other tails afresh
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


def enumerate_records(job: EnumerationJob) -> Iterator[QuadrupleRecord]:
    """Stream records for the job, honoring its shard and filters.

    The shard owns whole rows: the walk skips each row whose |a|² it does
    not own with one lookup (see ``_owned_norms``) and builds every
    record of the rows it owns, or with ``primitive_only`` those that pass
    the gcd-only test.  Each takes its tail from the cache of its orbit
    key (|a|², |b|², a·b, |a×b|), whose |a|² no other shard owns.
    """
    span = range(-job.bound, job.bound + 1)
    # the spinors of the box as (m, n, m² + n²), in lexicographic order
    points = [(m, n, m * m + n * n) for m in span for n in span if job.include_zero or m or n]
    owned = _owned_norms(points, job.shard)
    primitive_only = job.primitive_only
    gcd = math.gcd
    new = tuple.__new__
    tails: dict[tuple[int, int, int, int], tuple] = {}
    get = tails.get
    # the |a|² of the rows that had room to insert: once the cache is
    # full, a row of any other norm holds no cached key and skips the
    # lookups
    norms = set()
    for a in points:
        m1, n1, norm_a = a
        if norm_a not in owned:
            continue
        if len(tails) < _CACHE_SIZE:
            norms.add(norm_a)
        cached = norm_a in norms
        for b in points:
            m2, n2, norm_b = b
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
                tail = _tail(a, b)
            else:
                cross = m1 * n2 - m2 * n1
                key = (norm_a, norm_b, m1 * m2 + n1 * n2, cross if cross > 0 else -cross)
                tail = get(key)
                if tail is None:
                    tail = _tail(a, b)
                    if len(tails) < _CACHE_SIZE:
                        tails[key] = tail
            yield new(QuadrupleRecord, (m1, n1, m2, n2) + tail)


def expected_record_count(bound: int, include_zero: bool = False) -> int:
    """Size of the unfiltered, unsharded stream."""
    lattice = (2 * bound + 1) ** 2
    if include_zero:
        return lattice * lattice
    return (lattice - 1) ** 2


def dedup_canonical(records: Iterable[QuadrupleRecord]) -> list[tuple[int, int, int, int]]:
    """Distinct canonical quadruples, ascending by (sum, entries).

    A record's ``canonical`` is the canonical form of (A, B, C, D1) only,
    so the D2 quadruple of a record is here only when some record has it
    as its D1 one: this is not the set of the run's quadruples."""
    unique = {record.canonical for record in records}
    return sorted(unique, key=lambda c: (sum(c), c))


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


def _line(template: str, record: QuadrupleRecord) -> str:
    """The record written into a format's line template."""
    return template % _fields(record)


def _record_format(fmt: str) -> RecordFormat:
    if fmt not in FORMATS:
        raise ValueError(f"unknown output format {fmt!r}")
    return FORMATS[fmt]


def _cut(template: str) -> tuple[str, str]:
    """A line template cut after its fourth comma: the head that writes
    the four generators and the tail that writes the rest.  No integer
    and no text of a head holds a comma of its own, so ``str.split(",",
    4)`` cuts each line the template writes at the same place."""
    *heads, tail = template.split(",", 4)
    return ",".join(heads) + ",", tail


def write_stream(records: Iterable[QuadrupleRecord], handle: IO[str], fmt: str) -> int:
    """Write records to an open text handle; returns the record count.

    A line is its generator head and its tail.  The tail text is cached
    under the record's own values after the generators, so the records of
    one symmetry orbit format it once and records whose tails compare
    equal share it; for records of ints and a bool flag, that is the text
    ``_line`` writes.  A record whose tail is not cached, once the cache
    is full or when the tail cannot be a key, is written whole."""
    header, template = _record_format(fmt)
    line = template + "\n"
    head, tail_template = _cut(line)
    if header:
        handle.write(header + "\n")
    write = handle.write
    tails: dict[tuple, str] = {}
    get = tails.get
    count = 0
    for count, record in enumerate(records, 1):
        values = record[4:]
        try:
            tail = get(values)
            if tail is None and len(tails) < _CACHE_SIZE:
                tail = tails[values] = tail_template % _fields(record)[4:]
        except TypeError:  # a tail that cannot be a key, such as a list canonical
            tail = None
        if tail is None:
            write(line % _fields(record))
        else:
            write(head % record[:4] + tail)
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
