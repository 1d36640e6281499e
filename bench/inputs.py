"""Seeded input generators for the spintile benchmark.

Every input a workload feeds the program comes from here, built from the
run's seed with a private ``random.Random``; the same seed always gives
the same inputs.  (The quadruples of ``verify_quadruples`` are one fixed
set that the seed orders; see there.)  Generation rejects invalid draws while it builds a
list (parallel pairs, quadruples ``verify`` cannot place), and nothing
is removed from a list after it is built.

The generators use plain integer and ``Fraction`` arithmetic of their
own, never the package, so an input does not depend on the code under
test.  Mixes are stratified (fixed counts per class, magnitudes spread
evenly over their range) so that the cost of one pass varies little
from seed to seed.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# enumerate: the box |entry| <= ENUMERATE_BOUND, fixed, so the seed is
# unused; the sharded pass splits it into SHARD_COUNT shards
ENUMERATE_BOUND = 6
SHARD_COUNT = 4

# tess_pairs: pairs per pass, by class
TESS_SMALL = 120  # integers with |entry| <= 30, half of them positively oriented
TESS_LARGE = 90  # integers with |entry| <= 10**6
TESS_RATIONAL = 90  # num and den up to 10**3, so tile areas reach ~1e-6
SMALL_LIMIT = 30
LARGE_LIMIT = 10**6
RATIONAL_LIMIT = 10**3

# verify_quadruples: base families per pass, by pair size; every family
# contributes both roots, once unscaled and once per scale
VERIFY_SMALL_FAMILIES = 40  # pairs with |entry| <= 30
VERIFY_LARGE_FAMILIES = 40  # pairs with |entry| <= 100
VERIFY_SCALES = (Fraction(1, 10**6), Fraction(1, 10**3), 10**3, 10**6)


def _cross(a: tuple, b: tuple):
    return a[0] * b[1] - b[0] * a[1]


def _dot(a: tuple, b: tuple):
    return a[0] * b[0] + a[1] * b[1]


def fully_positive(a: tuple, b: tuple) -> bool:
    """True when all fifteen tiles of the pair are positively oriented:
    a×b > 0 and the three spinors a, b, c = −a−b meet at obtuse angles."""
    c = (-a[0] - b[0], -a[1] - b[1])
    return _cross(a, b) > 0 and _dot(a, b) < 0 and _dot(b, c) < 0 and _dot(c, a) < 0


def _spinor_text(x, y) -> str:
    return f"{x},{y}"


def _small_pair(rng: random.Random, limit: int, positive: bool) -> tuple:
    while True:
        a = (rng.randint(-limit, limit), rng.randint(-limit, limit))
        b = (rng.randint(-limit, limit), rng.randint(-limit, limit))
        if _cross(a, b) == 0:
            continue
        if _cross(a, b) < 0:
            a, b = b, a
        if fully_positive(a, b) == positive:
            return a, b


def tess_pairs(seed: int) -> list[tuple[str, str, str]]:
    """One pass of ``tess_pairs``: ``(kind, a_text, b_text)`` triples.

    ``kind`` is ``small``, ``large`` or ``rational``.  Small pairs take
    their magnitude limit from an even spread over 2..30, and alternate
    between fully positive pairs (where ``tile_area_pick`` runs on every
    tile) and folded ones, so the O(area) lattice counting costs about
    the same on every seed.  The pass is shuffled.
    """
    rng = random.Random(f"tess_pairs:{seed}")
    out: list[tuple[str, str, str]] = []
    for i in range(TESS_SMALL):
        # strata of width 1 over 2..30; a limit of 1 has no fully
        # positive pair
        limit = 2 + (i * (SMALL_LIMIT - 1)) // TESS_SMALL
        a, b = _small_pair(rng, limit, positive=i % 2 == 0)
        if rng.random() < 0.5 and not fully_positive(a, b):
            a, b = b, a
        out.append(("small", _spinor_text(*a), _spinor_text(*b)))
    for _ in range(TESS_LARGE):
        while True:
            a = (rng.randint(-LARGE_LIMIT, LARGE_LIMIT), rng.randint(-LARGE_LIMIT, LARGE_LIMIT))
            b = (rng.randint(-LARGE_LIMIT, LARGE_LIMIT), rng.randint(-LARGE_LIMIT, LARGE_LIMIT))
            if _cross(a, b) != 0:
                break
        out.append(("large", _spinor_text(*a), _spinor_text(*b)))
    for _ in range(TESS_RATIONAL):
        while True:
            a, b = (
                tuple(
                    Fraction(rng.randint(-RATIONAL_LIMIT, RATIONAL_LIMIT), rng.randint(1, RATIONAL_LIMIT))
                    for _ in range(2)
                )
                for _ in range(2)
            )
            if _cross(a, b) != 0:
                break
        out.append(("rational", _spinor_text(*a), _spinor_text(*b)))
    rng.shuffle(out)
    return out


def family(a: tuple, b: tuple) -> tuple[int, int, int, int, int]:
    """(A, B, C, D1, D2) of an integer pair, D1 >= D2."""
    ab = _dot(a, b)
    norm_a, norm_b = _dot(a, a), _dot(b, b)
    base = norm_a + norm_b + ab
    twist = 2 * _cross(a, b)
    d1, d2 = sorted((base + twist, base - twist), reverse=True)
    return (norm_b + ab, norm_a + ab, -ab, d1, d2)


def descartes_residual(quadruple) -> Fraction:
    total = sum(quadruple)
    return 2 * sum(v * v for v in quadruple) - total * total


def placeable(quadruple) -> bool:
    """What ``verify`` accepts: three positive curvatures and no zero."""
    return all(v != 0 for v in quadruple) and sum(1 for v in quadruple if v > 0) >= 3


def _plain(value):
    return int(value) if isinstance(value, Fraction) and value.denominator == 1 else value


def verify_quadruples(seed: int) -> list[tuple[str, tuple]]:
    """One pass of ``verify_quadruples``: ``(kind, curvatures)`` pairs.

    ``kind`` is ``small``, ``large`` or ``scaled``.  Each base family
    comes from a random integer pair and gives both roots; a root is
    kept only when ``verify`` can place it.  Every kept quadruple also
    appears scaled by each of 1e-6, 1e-3, 1e3 and 1e6, which is where
    float verification is known to go wrong.  Each quadruple's
    residual is checked to be exactly zero.

    The set of quadruples is the same for every seed, and the seed only
    shuffles it: every run then meets the same genuine quadruples, so
    the number that the program wrongly fails is a fixed count that two
    sets of runs can compare, whatever their seeds.
    """
    rng = random.Random("verify_quadruples")
    out: list[tuple[str, tuple]] = []
    for kind, limit, families in (
        ("small", SMALL_LIMIT, VERIFY_SMALL_FAMILIES),
        ("large", 100, VERIFY_LARGE_FAMILIES),
    ):
        made = 0
        while made < families:
            a = (rng.randint(-limit, limit), rng.randint(-limit, limit))
            b = (rng.randint(-limit, limit), rng.randint(-limit, limit))
            if _cross(a, b) == 0:
                continue
            big_a, big_b, big_c, d1, d2 = family(a, b)
            roots = [q for q in ((big_a, big_b, big_c, d1), (big_a, big_b, big_c, d2)) if placeable(q)]
            if not roots:
                continue
            made += 1
            for quadruple in roots:
                out.append((kind, quadruple))
                for scale in VERIFY_SCALES:
                    out.append(("scaled", tuple(_plain(scale * v) for v in quadruple)))
    for _, quadruple in out:
        if descartes_residual(quadruple) != 0:
            raise AssertionError(f"generated a non-Descartes quadruple {quadruple}")
    random.Random(f"verify_quadruples:{seed}").shuffle(out)
    return out


def cli_mix(seed: int) -> list[tuple[str, list[str]]]:
    """One pass of ``cli_invocations``: ``(name, argv)`` for each call.

    Arguments that name files use the placeholders ``{tess_json}``,
    ``{verify_json}`` and ``{svg}``; the workload fills them in with
    paths in its work directory.  The order is shuffled.
    """
    rng = random.Random(f"cli_invocations:{seed}")
    a, b = _small_pair(rng, 12, positive=rng.random() < 0.5)
    a_text, b_text = _spinor_text(*a), _spinor_text(*b)
    big_a, big_b, big_c, d1, d2 = family(a, b)
    while True:
        qa, qb = _small_pair(rng, 12, positive=True)
        quadruple = family(qa, qb)[:4]
        if placeable(quadruple):
            break
    while True:
        triple = [rng.randint(1, 60) for _ in range(3)]
        disc = triple[0] * triple[1] + triple[1] * triple[2] + triple[2] * triple[0]
        if math.isqrt(disc) ** 2 != disc:
            break
    curvatures = ",".join(str(v) for v in quadruple)
    pair = ["--a", a_text, "--b", b_text]
    exact = ["--curvatures", f"{big_a},{big_b},{big_c}"]
    mix = [
        ("tess", ["tess", *pair]),
        ("tess_json", ["tess", *pair, "--json"]),
        ("tess_svg", ["tess", *pair, "--svg", "{svg}"]),
        ("quad", ["quad", *pair]),
        ("quad_json", ["quad", *pair, "--json"]),
        ("solve_exact", ["solve", *exact]),
        ("solve_exact_json", ["solve", *exact, "--json"]),
        ("solve_inexact", ["solve", "--curvatures", ",".join(str(v) for v in triple)]),
        ("verify", ["verify", "--curvatures", curvatures]),
        ("verify_json", ["verify", "--curvatures", curvatures, "--json"]),
        ("render_tess", ["render", "--from-json", "{tess_json}", "--out", "{svg}"]),
        ("render_tess_arrows", ["render", "--from-json", "{tess_json}", "--out", "{svg}", "--spinor-arrows", "--no-labels"]),
        ("render_verify", ["render", "--from-json", "{verify_json}", "--out", "{svg}", "--midcircles"]),
        ("enumerate", ["enumerate", "--bound", "2"]),
        ("enumerate_jsonl", ["enumerate", "--bound", "2", "--format", "jsonl", "--primitive"]),
    ]
    rng.shuffle(mix)
    return mix
