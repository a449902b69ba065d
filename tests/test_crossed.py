"""Flip crossed product: product law, star, the five standard projections."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import scalars
from ncgeo.crossed import (
    PROJECTION_NAMES,
    CrossedElement,
    is_projection,
    make_projection,
)
from ncgeo.scalars import HALF, LAMBDA, MU, ONE, Scalar, mu_pow
from ncgeo.torus import Series, TorusElement, U1, U2


def mono(n, m, c=ONE):
    return TorusElement.monomial(n, m, c)


small_torus = st.builds(
    lambda pairs: TorusElement({(n, m): mu_pow(k) * s for (n, m, k, s) in pairs}),
    st.lists(
        st.tuples(
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-2, max_value=2),
            st.integers(min_value=-2, max_value=2),
            st.sampled_from([1, -1, 2]).map(Scalar.from_int),
        ),
        max_size=3,
    ),
)
small_crossed = st.builds(CrossedElement, small_torus, small_torus)

# halves whose coefficients include binomials and rational values
rich_torus = st.builds(
    TorusElement,
    st.dictionaries(
        st.tuples(st.integers(min_value=-2, max_value=2), st.integers(min_value=-2, max_value=2)),
        st.one_of(
            st.builds(lambda k, s: mu_pow(k) * s, st.integers(min_value=-2, max_value=2),
                      st.sampled_from([1, -1, 2]).map(Scalar.from_int)),
            st.builds(lambda k, a, b: Scalar(k, (a, 0, b), (1,)), st.integers(min_value=-2, max_value=2),
                      st.sampled_from([1, -2]), st.sampled_from([1, -1, 3])),
            st.sampled_from([HALF, -HALF * MU, ONE / (ONE - LAMBDA)]),
        ),
        max_size=3,
    ),
)
rich_crossed = st.builds(CrossedElement, rich_torus, rich_torus)


def plain_product(a, b, k):
    """u**k * a * b multiplied out and put in canonical form by the Scalar
    constructor, without Scalar's product routine."""
    return Scalar(a.s + b.s + k, scalars._pmul(a.n, b.n), scalars._pmul(a.d, b.d))


def oracle_product(x, y):
    """The twisted product term by term: a * b * lambda**(q*r) at (p+r, q+s)."""
    out = TorusElement.zero()
    for (p, q), a in x.terms.items():
        for (r, s), b in y.terms.items():
            out = out + TorusElement({(p + r, q + s): plain_product(a, b, 2 * q * r)})
    return out


def oracle_sigma(x):
    return TorusElement({(-n, -m): c for (n, m), c in x.terms.items()})


def oracle_crossed(x, y):
    """(a + b t)(c + d t) = (a c + b sigma(d)) + (a d + b sigma(c)) t."""
    a, b, c, d = x.even, x.odd, y.even, y.odd
    return (
        oracle_product(a, c) + oracle_product(b, oracle_sigma(d)),
        oracle_product(a, d) + oracle_product(b, oracle_sigma(c)),
    )


class TestProductLaw:
    def test_t_squared(self):
        t = CrossedElement(None, TorusElement.one())
        assert t * t == CrossedElement.one()

    def test_t_conjugation(self):
        t = CrossedElement(None, TorusElement.one())
        x = CrossedElement(mono(2, -1, MU))
        assert t * x * t == CrossedElement(mono(2, -1, MU).sigma())

    def test_odd_times_even(self):
        # (b t) c = (b sigma(c)) t
        b, c = mono(1, 1), mono(0, 2, MU)
        got = CrossedElement(None, b) * CrossedElement(c)
        assert got == CrossedElement(None, b * c.sigma())

    @given(rich_crossed, rich_crossed)
    @settings(max_examples=60, deadline=None)
    def test_matches_the_term_by_term_oracle(self, x, y):
        got = x * y
        even, odd = oracle_crossed(x, y)
        assert got == CrossedElement(even, odd)
        assert got.to_json() == {"even": even.to_json(), "odd": odd.to_json()}

    def test_one_convolution_per_pair_of_halves(self, monkeypatch):
        # the product law is evaluated straight into two coefficient maps:
        # no torus product, no sigma copy and no series sum
        rng = random.Random(29)

        def half():
            return TorusElement({
                (rng.randint(-2, 2), rng.randint(-2, 2)): mu_pow(rng.randint(-3, 3)) * rng.choice((1, -1, 2))
                for _ in range(3)
            })

        cases = [(CrossedElement(half(), half()), CrossedElement(half(), half())) for _ in range(6)]
        wants = [CrossedElement(*oracle_crossed(x, y)) for x, y in cases]
        calls = {"__mul__": 0, "sigma": 0, "__add__": 0}

        def counting(cls, name):
            original = getattr(cls, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            monkeypatch.setattr(cls, name, wrapper)

        counting(TorusElement, "__mul__")
        counting(TorusElement, "sigma")
        counting(Series, "__add__")
        got = [x * y for x, y in cases]
        monkeypatch.undo()
        assert got == wants
        assert calls == {"__mul__": 0, "sigma": 0, "__add__": 0}

    @given(small_crossed, small_crossed, small_crossed)
    @settings(max_examples=50, deadline=None)
    def test_associative(self, x, y, z):
        assert (x * y) * z == x * (y * z)

    @given(small_crossed, small_crossed)
    @settings(max_examples=50, deadline=None)
    def test_star_antimultiplicative(self, x, y):
        assert (x * y).star() == y.star() * x.star()
        assert x.star().star() == x


class TestProjections:
    def test_all_five_are_projections(self):
        for name in PROJECTION_NAMES:
            check = is_projection(make_projection(name))
            assert check.ok, name
            assert check.idempotency_defect.is_zero()
            assert check.adjoint_defect.is_zero()

    def test_r_odd_part_uses_square_root_of_twist(self):
        r = make_projection("r")
        assert r.odd == (U1 * U2).scale(-HALF * MU)
        b = r.odd
        assert b * b.sigma() == TorusElement.monomial(0, 0, HALF * HALF)

    def test_unknown_name_rejected(self):
        try:
            make_projection("q2")
        except ValueError as e:
            assert "q2" in str(e)
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")

    def test_u1_is_not_a_projection(self):
        x = CrossedElement(U1)
        check = is_projection(x)
        assert not check.ok
        assert check.idempotency_defect == CrossedElement(U1 * U1 - U1)

    def test_wrong_twist_power_breaks_r(self):
        # replacing the square root u by the full twist lambda in r ruins
        # idempotency: the odd square becomes lambda/4 instead of 1/4
        bad = CrossedElement(
            TorusElement.monomial(0, 0, HALF), (U1 * U2).scale(-HALF * LAMBDA)
        )
        check = is_projection(bad)
        assert not check.ok
        assert check.idempotency_defect.even == TorusElement.monomial(
            0, 0, (LAMBDA - ONE) * HALF * HALF
        )
        assert not check.adjoint_defect.is_zero()

    def test_projection_json_round_trip(self):
        for name in PROJECTION_NAMES:
            x = make_projection(name)
            assert CrossedElement.from_json(x.to_json()) == x

    def test_json_names_the_bad_half(self):
        good = {"terms": []}
        for data, half in (
            ({"even": good}, "'odd'"),
            ({"odd": good}, "'even'"),
            ([good, good], "'even', 'odd'"),
            ({"even": good, "odd": [1]}, "'odd'"),
            ({"even": good, "odd": good, "extra": good}, "'extra'"),
        ):
            with pytest.raises(ValueError, match=half):
                CrossedElement.from_json(data)
