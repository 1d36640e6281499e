"""Descartes quadruples: residual, fourth-curvature roots, spinor builders."""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from spintile import (
    ComplexSolutions,
    DescartesQuadruple,
    NonIntegral,
    Spinor,
    apollonian_flip,
    canonical_form,
    canonicalize,
    cross,
    descartes_residual,
    dot,
    fourth_curvatures,
    from_spinor_pair,
    norm_sq,
    pair_curvatures,
)

nonzero_int_spinors = st.builds(
    Spinor, st.integers(-60, 60), st.integers(-60, 60)
).filter(lambda u: not u.is_zero())

# magnitudes up to 1e12, ints and rationals with denominators up to 1e4
wide_components = st.one_of(
    st.integers(-(10**12), 10**12),
    st.builds(Fraction, st.integers(-(10**12), 10**12), st.integers(1, 10**4)),
)
wide_spinors = st.builds(Spinor, wide_components, wide_components)

small_fractions = st.fractions(min_value=-60, max_value=60, max_denominator=12)
nonzero_rational_spinors = st.builds(Spinor, small_fractions, small_fractions).filter(
    lambda u: not u.is_zero()
)


def decimal_roots(a: Fraction, b: Fraction, c: Fraction) -> tuple[float, float]:
    """Both roots of the circle identity at 400 significant digits,
    rounded once to floats."""
    with localcontext() as context:
        context.prec = 400
        a, b, c = (Decimal(v.numerator) / Decimal(v.denominator) for v in (a, b, c))
        base = a + b + c
        spread = 2 * (a * b + b * c + c * a).sqrt()
        return float(base + spread), float(base - spread)


class TestResidual:
    @pytest.mark.parametrize(
        "quadruple",
        [(2, 3, 6, 23), (2, 3, 6, -1), (2, 2, 3, 15), (3, 14, 6, 47), (11, 14, 23, 102)],
    )
    def test_known_quadruples_vanish(self, quadruple):
        assert descartes_residual(*quadruple) == 0

    def test_non_quadruple_value(self):
        # frozen: 2*(4+9+36+49) - 18**2 computed by hand
        assert descartes_residual(2, 3, 6, 7) == -128

    def test_rational_entries(self):
        scaled = (Fraction(2, 5), Fraction(3, 5), Fraction(6, 5), Fraction(23, 5))
        assert descartes_residual(*scaled) == 0

    def test_constructor_validates(self):
        with pytest.raises(ValueError):
            DescartesQuadruple(2, 3, 6, 7)
        assert DescartesQuadruple(2, 3, 6, 23).as_tuple() == (2, 3, 6, 23)

    @pytest.mark.parametrize(
        ("entries", "residual"),
        [
            # the curvatures scaled by 1/5, 4th off the root
            ((Fraction(2, 5), Fraction(3, 5), Fraction(6, 5), Fraction(7, 5)), "-128/25"),
            # the numerators 2, 3, 6, 23 form a quadruple, the values do not
            ((Fraction(2, 5), Fraction(3, 5), Fraction(6, 5), Fraction(23, 7)), "-5612/1225"),
            ((Fraction(1, 6), Fraction(1, 6), Fraction(1, 4), Fraction(5, 3)), "35/48"),
            # the residual of the ints times 2, -8, reduces over 2² to a whole -2
            ((Fraction(1, 2),) * 4, "-2"),
            ((Fraction(2), Fraction(3), Fraction(6), Fraction(7)), "-128"),
            ((Fraction(1, 2), Fraction(1, 3), 1, 1), "-119/36"),
        ],
    )
    def test_rational_non_quadruples_raise_with_their_residual(self, entries, residual):
        assert str(descartes_residual(*entries)) == residual
        with pytest.raises(ValueError) as caught:
            DescartesQuadruple(*entries)
        assert str(caught.value) == f"not a Descartes quadruple (residual {residual})"

    @pytest.mark.parametrize(
        "entries",
        [
            # (2, 3, 6, 23)/4: the reduced numerators 1, 3, 3, 23 are no quadruple
            (Fraction(1, 2), Fraction(3, 4), Fraction(3, 2), Fraction(23, 4)),
            # (2, 2, 3, 15)/12: the denominators 6 and 4 have lcm 12, not
            # their maximum
            (Fraction(1, 6), Fraction(1, 6), Fraction(1, 4), Fraction(5, 4)),
            # whole values given as Fractions, with one int
            (Fraction(2), Fraction(3), 6, Fraction(23)),
        ],
    )
    def test_rational_quadruples_validate(self, entries):
        assert DescartesQuadruple(*entries).as_tuple() == entries

    def test_constructor_rejects_floats(self):
        with pytest.raises(TypeError):
            DescartesQuadruple(2.0, 3, 6, 23)


class TestFourthCurvatures:
    def test_integral_pair_of_roots(self):
        # whole roots are ints, whatever type the curvatures came as
        whole = [(2, 3, 6), (Fraction(2), Fraction(3), Fraction(6)), (Fraction(4, 2), 3, "6")]
        for curvatures in whole:
            roots = fourth_curvatures(*curvatures)
            assert roots == (23, -1, True)
            assert type(roots.larger) is type(roots.smaller) is int

    def test_double_root(self):
        roots = fourth_curvatures(-1, 2, 2)
        assert roots == (3, 3, True)

    def test_rational_roots(self):
        roots = fourth_curvatures(Fraction(2, 5), Fraction(3, 5), Fraction(6, 5))
        assert roots.exact
        assert roots.larger == Fraction(23, 5)
        assert roots.smaller == Fraction(-1, 5)

    def test_irrational_roots_fall_back_to_floats(self):
        roots = fourth_curvatures(1, 1, 1)
        assert not roots.exact
        for d in (roots.larger, roots.smaller):
            assert isinstance(d, float)
            assert abs(descartes_residual(1.0, 1.0, 1.0, d)) < 1e-9
        assert roots.larger == pytest.approx(3 + 2 * 3**0.5)

    def test_negative_discriminant_raises(self):
        with pytest.raises(ComplexSolutions):
            fourth_curvatures(1, 1, -1)

    @pytest.mark.parametrize(
        "curvatures",
        [
            ("1e150", "1e150", "1"),
            ("1", "1", "1"),
            ("-1", "-1", "-1"),
            ("1/3", "1", "2"),
            ("-1e140", "-1e140", "-3"),
            ("1e-100", "1e-100", "1e-108"),
            # a discriminant below the float range
            ("1e-200", "1e-200", "1e-210"),
            # and above it
            ("1e200", "1e200", "1"),
            ("-1e250", "-1e250", "-3"),
        ],
    )
    def test_inexact_roots_match_a_decimal_reference(self, curvatures):
        exact = [Fraction(v) for v in curvatures]
        roots = fourth_curvatures(*exact)
        assert not roots.exact
        for value, reference in zip(roots[:2], decimal_roots(*exact)):
            assert math.isclose(value, reference, rel_tol=1e-14)

    @given(
        st.lists(st.integers(-(10**6), 10**6), min_size=3, max_size=3),
        st.integers(-280, 200),
    )
    def test_inexact_roots_match_a_decimal_reference_at_every_scale(self, entries, exponent):
        exact = [Fraction(v) * Fraction(10) ** exponent for v in entries]
        a, b, c = exact
        disc = a * b + b * c + c * a
        assume(disc > 0 and math.isqrt(disc.numerator) ** 2 != disc.numerator)
        roots = fourth_curvatures(*exact)
        for value, reference in zip(roots[:2], decimal_roots(*exact)):
            assert math.isclose(value, reference, rel_tol=1e-14)

    @given(
        nonzero_int_spinors,
        nonzero_int_spinors,
        st.one_of(
            st.sampled_from([Fraction(1, 10**6), Fraction(1, 10**3), 1, 10**3, 10**6, 10**12]),
            st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)),
        ),
    )
    def test_roots_match_spinor_construction(self, a, b, k):
        # k from 1e-6 to 1e12, and a random p/q
        family = from_spinor_pair(a, b)
        roots = fourth_curvatures(*(k * value for value in family.shared_curvatures))
        assert roots.exact
        assert (roots.larger, roots.smaller) == (k * family.d1, k * family.d2)
        for root in roots[:2]:
            assert type(root) is (int if root.denominator == 1 else Fraction)


class TestFromSpinorPair:
    def test_figure_generators(self):
        family = from_spinor_pair(Spinor(3, 0), Spinor(-1, 2))
        assert family.shared_curvatures == (2, 6, 3)
        assert (family.d1, family.d2) == (23, -1)

    def test_unit_generators(self):
        family = from_spinor_pair(Spinor(1, 0), Spinor(0, 1))
        assert family.quadruple_1.as_tuple() == (1, 1, 0, 4)
        assert family.quadruple_2.as_tuple() == (1, 1, 0, 0)

    @given(nonzero_int_spinors, nonzero_int_spinors)
    def test_integer_spinors_give_int_curvatures(self, a, b):
        family = from_spinor_pair(a, b)
        values = (*family.quadruple_1.as_tuple(), family.d2)
        assert all(type(v) is int for v in values)

    @given(nonzero_rational_spinors, nonzero_rational_spinors)
    def test_kernel_matches_the_spinor_formulas(self, a, b):
        ab = dot(a, b)
        base = norm_sq(a) + norm_sq(b) + ab
        twist = 2 * abs(cross(a, b))
        assert pair_curvatures((a.x, a.y, norm_sq(a)), (b.x, b.y, norm_sq(b))) == (
            norm_sq(b) + ab, norm_sq(a) + ab, -ab, base + twist, base - twist
        )

    @given(nonzero_rational_spinors, nonzero_rational_spinors)
    def test_quadruples_equal_the_validated_ones(self, a, b):
        # built without the public constructor's checks, each quadruple is
        # still equal to, hashes and prints as the one that passes them
        family = from_spinor_pair(a, b)
        for quadruple in (family.quadruple_1, family.quadruple_2):
            validated = DescartesQuadruple(*quadruple.as_tuple())
            assert quadruple == validated
            assert hash(quadruple) == hash(validated)
            assert repr(quadruple) == repr(validated)
            assert list(map(type, quadruple.as_tuple())) == list(map(type, validated.as_tuple()))

    def test_parallel_generators_collapse_roots(self):
        family = from_spinor_pair(Spinor(2, 1), Spinor(4, 2))
        assert family.d1 == family.d2

    @given(nonzero_int_spinors, nonzero_int_spinors)
    def test_residuals_vanish_for_both_roots(self, a, b):
        family = from_spinor_pair(a, b)
        assert descartes_residual(*family.quadruple_1.as_tuple()) == 0
        assert descartes_residual(*family.quadruple_2.as_tuple()) == 0

    @given(nonzero_int_spinors, nonzero_int_spinors)
    def test_root_sum_and_product(self, a, b):
        family = from_spinor_pair(a, b)
        base = norm_sq(a) + norm_sq(b) + dot(a, b)
        assert family.d1 + family.d2 == 2 * base
        assert family.d1 * family.d2 == base * base - 4 * cross(a, b) ** 2
        assert family.d1 - family.d2 == 4 * abs(cross(a, b))

    @given(nonzero_int_spinors, nonzero_int_spinors)
    def test_swapping_generators_swaps_a_and_b(self, a, b):
        forward = from_spinor_pair(a, b)
        backward = from_spinor_pair(b, a)
        fa, fb, fc = forward.shared_curvatures
        ba, bb, bc = backward.shared_curvatures
        assert (fa, fb, fc) == (bb, ba, bc)
        assert (forward.d1, forward.d2) == (backward.d1, backward.d2)

    @given(nonzero_int_spinors, nonzero_int_spinors, st.integers(1, 5))
    def test_scaling_generators_scales_quadratically(self, a, b, k):
        plain = from_spinor_pair(a, b)
        scaled = from_spinor_pair(k * a, k * b)
        assert scaled.quadruple_1.as_tuple() == tuple(
            k * k * v for v in plain.quadruple_1.as_tuple()
        )


class TestFromSpinorTriple:
    """The pair's curvatures in the symmetric form of the zero-sum triple
    a, b, c = −a − b: A = −b·c, B = −c·a, C = −a·b and
    D1 + D2 = |a|² + |b|² + |c|², and the root |a|² + |b|² + a·b + 2(a×b)
    with a×b signed is D1 when a×b ≥ 0 and D2 otherwise, so that root
    minus the other is 4(a×b), signed."""

    def test_example_triple(self):
        a, b = Spinor(2, 1), Spinor(1, -3)
        c = -a - b
        # a×b = −7: the signed root 5 + 10 − 1 − 14 = 0 is the smaller, D2
        family = from_spinor_pair(a, b)
        assert (*family.shared_curvatures, family.d1, family.d2) == (9, 4, 1, 28, 0)
        assert family.shared_curvatures == (-dot(b, c), -dot(c, a), -dot(a, b))
        swapped = from_spinor_pair(b, a)
        assert (*swapped.shared_curvatures, swapped.d1, swapped.d2) == (4, 9, 1, 28, 0)
        half = Fraction(1, 2)
        quartered = from_spinor_pair(half * a, half * b)
        values = (*quartered.shared_curvatures, quartered.d1, quartered.d2)
        assert values == (Fraction(9, 4), 1, Fraction(1, 4), 7, 0)
        assert [type(value) for value in values] == [Fraction, int, Fraction, int, int]

    @given(
        st.one_of(nonzero_int_spinors, nonzero_rational_spinors),
        st.one_of(nonzero_int_spinors, nonzero_rational_spinors),
    )
    def test_agrees_with_pair_construction(self, a, b):
        c = -a - b
        family = from_spinor_pair(a, b)
        big_a, big_b, big_c = family.shared_curvatures
        assert (big_a, big_b, big_c) == (-dot(b, c), -dot(c, a), -dot(a, b))
        assert family.d1 + family.d2 == norm_sq(a) + norm_sq(b) + norm_sq(c)
        signed = norm_sq(a) + norm_sq(b) + dot(a, b) + 2 * cross(a, b)
        other = family.d1 + family.d2 - signed
        assert {signed, other} == {family.d1, family.d2}
        assert signed - other == 4 * cross(a, b)
        assert descartes_residual(big_a, big_b, big_c, signed) == 0
        assert descartes_residual(big_a, big_b, big_c, other) == 0

    @given(wide_spinors, wide_spinors)
    def test_signed_root_orders_by_the_cross_product(self, a, b):
        family = from_spinor_pair(a, b)
        signed = norm_sq(a) + norm_sq(b) + dot(a, b) + 2 * cross(a, b)
        assert signed == (family.d1 if cross(a, b) >= 0 else family.d2)


class TestApollonianFlip:
    def test_flip_fourth_of_figure_quadruple(self):
        start = DescartesQuadruple(2, 3, 6, 23)
        assert apollonian_flip(start, 3).as_tuple() == (2, 3, 6, -1)

    def test_flip_is_involution(self):
        start = DescartesQuadruple(2, 3, 6, 23)
        for index in range(4):
            assert apollonian_flip(apollonian_flip(start, index), index) == start

    @given(
        nonzero_int_spinors,
        nonzero_int_spinors,
        st.lists(st.integers(0, 3), min_size=1, max_size=6),
    )
    def test_random_walk_stays_on_residual_zero(self, a, b, indices):
        quadruple = from_spinor_pair(a, b).quadruple_1
        for index in indices:
            # the constructor re-validates the residual at every step
            quadruple = apollonian_flip(quadruple, index)
        assert descartes_residual(*quadruple.as_tuple()) == 0


class TestCanonicalize:
    def test_sorts_primitive_input(self):
        reduced, primitive = canonicalize(DescartesQuadruple(2, 6, 3, 23))
        assert reduced.as_tuple() == (2, 3, 6, 23)
        assert primitive

    def test_reduces_common_factor(self):
        reduced, primitive = canonicalize(DescartesQuadruple(4, 4, 0, 16))
        assert reduced.as_tuple() == (0, 1, 1, 4)
        assert not primitive

    def test_negative_entries(self):
        reduced, primitive = canonicalize(DescartesQuadruple(-2, 4, 4, 6))
        assert reduced.as_tuple() == (-1, 2, 2, 3)
        assert not primitive

    def test_all_zero(self):
        reduced, primitive = canonicalize(DescartesQuadruple(0, 0, 0, 0))
        assert reduced.as_tuple() == (0, 0, 0, 0)
        assert not primitive

    def test_canonical_form_of_plain_ints(self):
        assert canonical_form(23, 6, 3, 2) == ((2, 3, 6, 23), True)
        assert canonical_form(16, 0, 4, 4) == ((0, 1, 1, 4), False)
        assert canonical_form(0, 0, 0, 0) == ((0, 0, 0, 0), False)

    def test_rational_input_rejected(self):
        scaled = DescartesQuadruple(
            Fraction(2, 5), Fraction(3, 5), Fraction(6, 5), Fraction(23, 5)
        )
        with pytest.raises(NonIntegral):
            canonicalize(scaled)

    @given(nonzero_int_spinors, nonzero_int_spinors, st.integers(1, 4))
    def test_scaling_does_not_change_canonical_form(self, a, b, k):
        plain = canonicalize(from_spinor_pair(a, b).quadruple_1)[0]
        scaled = canonicalize(from_spinor_pair(k * a, k * b).quadruple_1)[0]
        assert plain == scaled
