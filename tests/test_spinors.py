"""Exact spinor arithmetic: parsing, the star/dot/cross algebra, squaring."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from spintile import PythTriple, Spinor, cross, dot, euclid_square, norm_sq, star
from spintile.spinors import int_if_whole

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000)
spinors = st.builds(Spinor, rationals, rationals)
int_spinors = st.builds(Spinor, st.integers(-50, 50), st.integers(-50, 50))
components = st.one_of(st.integers(-10**12, 10**12), rationals)
mixed_spinors = st.builds(Spinor, components, components)


class TestConstruction:
    def test_int_components_stay_int(self):
        u = Spinor(3, -2)
        assert u.x == 3 and isinstance(u.x, int)
        assert u.y == -2 and isinstance(u.y, int)

    def test_fraction_components(self):
        u = Spinor(Fraction(1, 2), Fraction(-3, 4))
        assert u.x == Fraction(1, 2)
        assert u.y == Fraction(-3, 4)

    def test_string_components_parse_exactly(self):
        u = Spinor("1/3", "-2")
        assert u.x == Fraction(1, 3)
        assert u.y == -2

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            Spinor(0.5, 1)
        with pytest.raises(TypeError):
            Spinor(1, True)
        with pytest.raises(TypeError):
            Spinor(1, 2) * 0.5
        with pytest.raises(TypeError):
            0.5 * Spinor(1, 2)
        with pytest.raises(TypeError):
            Spinor(1, 2) * True

    def test_parse_round_trip(self):
        for text in ("3,0", "-1,2", "1/2,-3/4"):
            assert Spinor.parse(text).format() == text

    def test_parse_whitespace(self):
        assert Spinor.parse(" 3 , -1 ") == Spinor(3, -1)

    def test_parse_wrong_arity(self):
        with pytest.raises(ValueError):
            Spinor.parse("1,2,3")
        with pytest.raises(ValueError):
            Spinor.parse("4")

    def test_arithmetic_operators(self):
        a = Spinor(3, 0)
        b = Spinor(-1, 2)
        assert a + b == Spinor(2, 2)
        assert a - b == Spinor(4, -2)
        assert -a == Spinor(-3, 0)
        assert 2 * b == Spinor(-2, 4)
        assert b * Fraction(1, 2) == Spinor(Fraction(-1, 2), 1)

    @pytest.mark.parametrize("text, value", [("3", 3), ("6/2", 3), ("2.0", 2), ("-0", 0)])
    def test_parse_whole_values_are_int(self, text, value):
        u = Spinor.parse(f"{text},{text}")
        assert type(u.x) is int and type(u.y) is int
        assert u == Spinor(value, value)

    @pytest.mark.parametrize("text", ["1/2", "0.5", "-7/3"])
    def test_parse_other_values_are_fraction(self, text):
        u = Spinor.parse(f"{text},1")
        assert type(u.x) is Fraction and u.x == Fraction(text)
        assert type(u.y) is int

    def test_integer_parts_parse_as_fraction_reads_them(self):
        # the int route must give the value, the type and every error text
        # that the Fraction route gives
        def through_fraction(text: str) -> Spinor:
            parts = text.split(",")
            if len(parts) != 2:
                raise ValueError(f"spinor text must be 'x,y', got {text!r}")
            return Spinor(*(int_if_whole(Fraction(part.strip())) for part in parts))

        def outcome(parse, text):
            try:
                u = parse(text)
            except (ValueError, ZeroDivisionError) as error:
                return type(error), str(error)
            return (u.x, type(u.x)), (u.y, type(u.y))

        parts = [
            "0", "-0", "7", "-7", "007", "-007", " 12 ", "\t-3\n", "123456", "-654321",
            "9" * 4300, "-" + "9" * 4300, "1" * 4301, "-" + "1" * 4301, "0" * 4300 + "1",
            "+5", "1_000", "-1_0", "\u0661\u0662", "\u00b2", "5.", "-0.0", "1e3", "6/2",
            "1/2", "-7/3", "5/0", "", " ", "-", "--5", "- 5", "0x10", "1 2", "abc", "nan",
        ]
        corpus = [f"{x},{y}" for x in parts for y in ("1", x)] + ["1,2,3", "4", ""]
        for text in corpus:
            assert outcome(Spinor.parse, text) == outcome(through_fraction, text), text

    def test_is_zero(self):
        assert Spinor(0, 0).is_zero()
        assert not Spinor(0, 1).is_zero()


class TestAlgebraExamples:
    def test_dot_cross_star_fixed_values(self):
        a = Spinor(3, 0)
        b = Spinor(-1, 2)
        assert dot(a, b) == -3
        assert cross(a, b) == 6
        assert star(a) == Spinor(0, 3)
        assert norm_sq(b) == 5

    def test_euclid_square_examples(self):
        assert euclid_square(Spinor(2, 1)).as_tuple() == (3, 4, 5)
        assert euclid_square(Spinor(1, 2)).as_tuple() == (-3, 4, 5)
        assert euclid_square(Spinor(2, -1)).as_tuple() == (3, -4, 5)

    def test_euclid_square_matches_complex_square(self):
        u = Spinor(Fraction(3, 2), Fraction(-1, 3))
        triple = euclid_square(u)
        z = complex(u.x, u.y) ** 2
        assert float(triple.a) == pytest.approx(z.real)
        assert float(triple.b) == pytest.approx(z.imag)


class TestPythTriple:
    def test_accepts_rational_triple(self):
        t = PythTriple(Fraction(3, 5), Fraction(4, 5), 1)
        assert t.as_tuple() == (Fraction(3, 5), Fraction(4, 5), 1)

    def test_rejects_non_pythagorean(self):
        with pytest.raises(ValueError):
            PythTriple(1, 2, 3)

    def test_rejects_negative_hypotenuse(self):
        with pytest.raises(ValueError):
            PythTriple(3, 4, -5)


class TestIdentities:
    @given(spinors, spinors)
    def test_cross_is_dot_with_star(self, u, v):
        assert cross(u, v) == dot(star(u), v)

    @given(spinors)
    def test_star_twice_negates(self, u):
        assert star(star(u)) == -u

    @given(spinors, spinors)
    def test_star_preserves_dot(self, u, v):
        assert dot(star(u), star(v)) == dot(u, v)

    @given(spinors, spinors)
    def test_star_preserves_cross(self, u, v):
        assert cross(star(u), star(v)) == cross(u, v)

    @given(spinors, spinors)
    def test_dot_is_cross_with_starred_second(self, u, v):
        assert dot(u, v) == cross(u, star(v))

    @given(spinors, spinors)
    def test_star_swap_in_cross(self, u, v):
        assert cross(star(u), v) == cross(star(v), u)

    @given(spinors)
    def test_self_cross_vanishes(self, u):
        assert cross(u, u) == 0

    @given(spinors)
    def test_self_dot_with_star_vanishes(self, u):
        assert dot(u, star(u)) == 0

    @given(spinors, spinors, spinors)
    def test_dot_bilinear(self, u, v, w):
        assert dot(u + v, w) == dot(u, w) + dot(v, w)

    @given(spinors)
    def test_norm_sq_is_self_dot(self, u):
        assert norm_sq(u) == dot(u, u)


class TestArithmeticResults:
    """The operators build their results without re-validation; the
    components must still be exactly the componentwise int/Fraction
    arithmetic, down to their type."""

    @staticmethod
    def assert_components(result, x, y):
        assert type(result) is Spinor
        assert (type(result.x), type(result.y)) == (type(x), type(y))
        assert type(x) in (int, Fraction) and type(y) in (int, Fraction)
        assert (result.x, result.y) == (x, y)
        assert result == Spinor(x, y) and hash(result) == hash(Spinor(x, y))

    @given(mixed_spinors, mixed_spinors, components)
    def test_operators_are_componentwise(self, u, v, k):
        self.assert_components(u + v, u.x + v.x, u.y + v.y)
        self.assert_components(u - v, u.x - v.x, u.y - v.y)
        self.assert_components(-u, -u.x, -u.y)
        self.assert_components(star(u), -u.y, u.x)
        self.assert_components(k * u, k * u.x, k * u.y)
        self.assert_components(u * k, k * u.x, k * u.y)


class TestEuclidSquare:
    @given(spinors)
    def test_hypotenuse_is_norm_sq(self, u):
        assert euclid_square(u).c == norm_sq(u)

    @given(spinors)
    def test_even_under_negation(self, u):
        assert euclid_square(-u) == euclid_square(u)

    @given(int_spinors)
    def test_integer_spinors_give_integer_triples(self, u):
        triple = euclid_square(u)
        assert all(isinstance(part, int) for part in triple.as_tuple())
