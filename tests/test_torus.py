"""Twisted torus algebra: product, flip, star, derivations, trace."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo import scalars
from ncgeo.scalars import HALF, LAMBDA, MU, ONE, Scalar, lambda_pow, mu_pow
from ncgeo.torus import U1, U2, TorusElement, u1, u2


def mono(n, m, c=ONE):
    return TorusElement.monomial(n, m, c)


small_elements = st.builds(
    lambda pairs: TorusElement(
        {(n, m): mu_pow(k) * s for (n, m, k, s) in pairs}
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.sampled_from([1, -1, 2]).map(Scalar.from_int),
        ),
        max_size=4,
    ),
)

# coefficients off the monomial lane too: binomials u^k (a + b u^j) and
# rational values, whose products take Scalar's general route
rich_coefficients = st.one_of(
    st.builds(
        lambda k, s: mu_pow(k) * s,
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([1, -1, 2]).map(Scalar.from_int),
    ),
    st.builds(
        lambda k, a, j, b: Scalar(k, (a,) + (0,) * (j - 1) + (b,), (1,)),
        st.integers(min_value=-3, max_value=3),
        st.sampled_from([1, -1, 2, -3]),
        st.integers(min_value=1, max_value=3),
        st.sampled_from([1, -1, 2]),
    ),
    st.sampled_from([HALF, -HALF * MU, ONE / (ONE - LAMBDA), (ONE + MU) / (2 - LAMBDA)]),
)
rich_elements = st.builds(
    TorusElement,
    st.dictionaries(
        st.tuples(st.integers(min_value=-3, max_value=3), st.integers(min_value=-3, max_value=3)),
        rich_coefficients,
        max_size=4,
    ),
)


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


class TestProduct:
    def test_exchange_rule(self):
        assert U2 * U1 == (U1 * U2).scale(LAMBDA)

    def test_monomial_phase(self):
        # (U1^p U2^q)(U1^r U2^s) = lambda^(qr) U1^(p+r) U2^(q+s)
        for p, q, r, s in [(0, 1, 1, 0), (2, -1, 3, 1), (-1, 2, -2, -2)]:
            got = mono(p, q) * mono(r, s)
            assert got == mono(p + r, q + s, lambda_pow(q * r))

    def test_inverse_pair(self):
        # (U1 U2)(U1^-1 U2^-1) = lambda^-1
        prod = (U1 * U2) * (u1(-1) * u2(-1))
        assert prod == mono(0, 0, lambda_pow(-1))

    def test_identity(self):
        e = TorusElement.one()
        x = mono(2, -1, MU) + mono(0, 3)
        assert e * x == x and x * e == x

    @given(small_elements, small_elements, small_elements)
    @settings(max_examples=60, deadline=None)
    def test_associative_and_distributive(self, a, b, c):
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(rich_elements, rich_elements)
    @settings(max_examples=80, deadline=None)
    def test_matches_the_term_by_term_oracle(self, a, b):
        got, want = a * b, oracle_product(a, b)
        assert got == want and got.to_json() == want.to_json()
        assert all(c for c in got.terms.values())

    @given(rich_elements, rich_elements, rich_elements)
    @settings(max_examples=30, deadline=None)
    def test_associative_off_the_monomial_lane(self, a, b, c):
        assert (a * b) * c == a * (b * c)

    def test_monomial_products_take_no_polynomial_product(self, monkeypatch):
        # every coefficient is +-c u^k, so each term pair is one Scalar
        # built from two integers; a binomial still takes _pmul
        rng = random.Random(5)

        def element(size):
            return TorusElement({
                (rng.randint(-3, 3), rng.randint(-3, 3)):
                    Scalar(rng.randint(-4, 4), (rng.choice((1, -1, 2, -3)),), (1,))
                for _ in range(size)
            })

        cases = [(element(n), element(m)) for n, m in ((1, 1), (3, 5), (6, 4), (8, 8))]
        wants = [oracle_product(x, y) for x, y in cases]
        calls = {"_pmul": 0}
        pmul = scalars._pmul

        def counting(a, b):
            calls["_pmul"] += 1
            return pmul(a, b)

        monkeypatch.setattr(scalars, "_pmul", counting)
        assert [x * y for x, y in cases] == wants
        assert calls["_pmul"] == 0
        assert mono(0, 0, ONE + MU) * mono(1, 0, ONE - MU) == mono(1, 0, ONE - LAMBDA)
        assert calls["_pmul"] == 1


class TestSigma:
    def test_involution(self):
        x = mono(1, 2, MU) + mono(-3, 0)
        assert x.sigma().sigma() == x

    @given(small_elements, small_elements)
    @settings(max_examples=60, deadline=None)
    def test_automorphism(self, a, b):
        assert (a * b).sigma() == a.sigma() * b.sigma()

    def test_on_exchange_relation(self):
        # sigma(U2 U1) = lambda * U1^-1 U2^-1
        assert (U2 * U1).sigma() == mono(-1, -1, LAMBDA)


class TestStar:
    def test_generators_are_unitary(self):
        for g in (U1, U2, U1 * U2):
            assert g.star() * g == TorusElement.one()
            assert g * g.star() == TorusElement.one()

    def test_reorder_phase(self):
        # (U1 U2)* = U2^-1 U1^-1 = lambda * U1^-1 U2^-1
        assert (U1 * U2).star() == mono(-1, -1, LAMBDA)
        assert (U1 * U2).star() == u2(-1) * u1(-1)

    def test_coefficient_conjugation(self):
        assert mono(0, 0, MU).star() == mono(0, 0, MU.inv())

    @given(small_elements, small_elements)
    @settings(max_examples=60, deadline=None)
    def test_antimultiplicative_involution(self, a, b):
        assert (a * b).star() == b.star() * a.star()
        assert a.star().star() == a

    @given(small_elements)
    @settings(max_examples=40, deadline=None)
    def test_star_commutes_with_sigma(self, a):
        assert a.sigma().star() == a.star().sigma()


class TestDerivations:
    def test_on_exchange_relation(self):
        # delta1(U2 U1) = lambda * U1 U2
        assert (U2 * U1).delta(1) == mono(1, 1, LAMBDA)

    def test_grading(self):
        x = mono(2, -3, MU)
        assert x.delta(1) == x.scale(2)
        assert x.delta(2) == x.scale(-3)

    @given(small_elements, small_elements)
    @settings(max_examples=60, deadline=None)
    def test_leibniz(self, a, b):
        for j in (1, 2):
            assert (a * b).delta(j) == a.delta(j) * b + a * b.delta(j)

    @given(small_elements)
    @settings(max_examples=40, deadline=None)
    def test_derivations_commute(self, a):
        assert a.delta(1).delta(2) == a.delta(2).delta(1)

    @given(small_elements)
    @settings(max_examples=40, deadline=None)
    def test_flip_anticommutes(self, a):
        for j in (1, 2):
            assert a.sigma().delta(j) == -(a.delta(j).sigma())


class TestTrace:
    def test_identity_coefficient(self):
        # trace((U1 U2)(U1^-1 U2^-1)) = lambda^-1
        assert ((U1 * U2) * (u1(-1) * u2(-1))).trace() == lambda_pow(-1)
        assert TorusElement.one().trace() == ONE
        assert U1.trace() == 0

    @given(small_elements, small_elements)
    @settings(max_examples=60, deadline=None)
    def test_trace_property(self, a, b):
        assert (a * b).trace() == (b * a).trace()

    @given(small_elements)
    @settings(max_examples=40, deadline=None)
    def test_flip_invariance(self, a):
        assert a.sigma().trace() == a.trace()

    @given(small_elements)
    @settings(max_examples=40, deadline=None)
    def test_derivations_have_no_trace(self, a):
        for j in (1, 2):
            assert a.delta(j).trace() == 0


class TestSerialization:
    def test_reference_shape(self):
        x = TorusElement({(1, -2): (ONE - LAMBDA) / MU})
        assert x.to_json() == {"terms": [{"n": 1, "m": -2, "c": "(1 - u^2)/u"}]}

    def test_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(25):
            x = TorusElement(
                {
                    (rng.randint(-4, 4), rng.randint(-4, 4)): mu_pow(rng.randint(-3, 3))
                    * Scalar.from_int(rng.choice([1, -1, 2, 3]))
                    for _ in range(rng.randint(0, 5))
                }
            )
            again = TorusElement.from_json(x.to_json())
            assert again == x
            assert type(again) is TorusElement

    def test_malformed_terms_are_value_errors(self):
        # each bad term is refused with a ValueError naming it, never read
        # loosely (1.7 -> 1, True -> 1, "2" -> 2, last duplicate wins) and
        # never a TypeError or AttributeError
        ok = {"n": 0, "m": 0, "c": "1"}
        for bad, term in (
            ({"n": 1.7, "m": 0, "c": "1"}, 0),
            ({"n": True, "m": 0, "c": "1"}, 0),
            ({"n": 0, "m": "2", "c": "1"}, 0),
            ({"n": 0, "m": 0, "c": 5}, 0),
            ({"n": 0, "m": 0, "c": "1/0"}, 0),
            ({"n": 0, "m": 0}, 0),
            (["n", "m", "c"], 0),
            (dict(ok, c="2"), 1),
        ):
            terms = [bad] if term == 0 else [ok, bad]
            with pytest.raises(ValueError, match=f"series term {term} "):
                TorusElement.from_json({"terms": terms})
        for data in (5, [ok], {"terms": ok}, {"rule": "D", "i": 0, "j": 0}):
            with pytest.raises(ValueError, match="a series is"):
                TorusElement.from_json(data)

    def test_non_integer_sites_are_value_errors(self):
        # a float or bool index is refused, not truncated onto (1, 0)
        for key in ((True, 0.9), (1.7, 0), (0, "2")):
            with pytest.raises(ValueError, match="must be integers"):
                TorusElement({key: ONE})

    def test_non_scalar_coefficients_are_value_errors(self):
        # a float or text coefficient is refused with the site, not stored
        # to fail later in to_json or arithmetic
        for c in (1.5, "abc", None, [1]):
            with pytest.raises(ValueError, match=r"site \(2, -1\): coefficient"):
                TorusElement({(2, -1): c})
        with pytest.raises(TypeError, match="from_int"):
            TorusElement.monomial(0, 0, 2.5)
        assert TorusElement({(0, 0): 3, (1, 0): HALF, (2, 0): 0}).to_json() == {
            "terms": [{"n": 0, "m": 0, "c": "3"}, {"n": 1, "m": 0, "c": "1/2"}]
        }

    def test_term_order_is_sorted(self):
        x = mono(1, 0) + mono(-1, 0) + mono(0, 2, HALF)
        sites = [(t["n"], t["m"]) for t in x.to_json()["terms"]]
        assert sites == sorted(sites)
