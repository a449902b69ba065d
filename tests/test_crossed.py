"""Flip crossed product: product law, star, the five standard projections."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo.crossed import (
    PROJECTION_NAMES,
    CrossedElement,
    is_projection,
    make_projection,
)
from ncgeo.scalars import HALF, LAMBDA, MU, ONE, Scalar, mu_pow
from ncgeo.torus import TorusElement, U1, U2


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


class TestProductLaw:
    def test_t_squared(self):
        t = CrossedElement(None, TorusElement.one())
        assert t * t == CrossedElement.one()

    def test_t_conjugation(self):
        t = CrossedElement(None, TorusElement.one())
        x = CrossedElement.from_torus(mono(2, -1, MU))
        assert t * x * t == CrossedElement.from_torus(mono(2, -1, MU).sigma())

    def test_odd_times_even(self):
        # (b t) c = (b sigma(c)) t
        b, c = mono(1, 1), mono(0, 2, MU)
        got = CrossedElement(None, b) * CrossedElement.from_torus(c)
        assert got == CrossedElement(None, b * c.sigma())

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
        x = CrossedElement.from_torus(U1)
        check = is_projection(x)
        assert not check.ok
        assert check.idempotency_defect == CrossedElement.from_torus(U1 * U1 - U1)

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
