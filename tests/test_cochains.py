"""Lattice cochains: differentials, kernel generators, flip pullbacks."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings, strategies as st

from ncgeo.scalars import HALF, LAMBDA, MU, ONE, ZERO, Scalar, lambda_pow, mu_pow
from ncgeo.cochains import (
    ALPHA1,
    ALPHA2,
    TWISTED_ALPHA1,
    TWISTED_ALPHA2,
    TWISTED_PULLBACK_DEG0,
    TWISTED_PULLBACK_DEG2,
    UNTWISTED_PULLBACK_DEG1,
    UNTWISTED_PULLBACK_DEG2,
    CochainPair,
    LatticeFunctional,
    Stencil,
    alpha1,
    alpha2,
    kernel_check_twisted_deg1,
    kernel_check_untwisted_deg1,
    make_D,
    twisted_alpha1,
    twisted_alpha2,
    twisted_pullback_deg0,
    twisted_pullback_deg2,
    untwisted_pullback_deg1,
    untwisted_pullback_deg2,
)
from ncgeo.torus import TorusElement


def d(n, m, c=1):
    return LatticeFunctional.delta(n, m, c)


ZERO_F = LatticeFunctional.zero()


small_functionals = st.builds(
    lambda pairs: LatticeFunctional(
        {(n, m): mu_pow(k) * s for (n, m, k, s) in pairs}
    ),
    st.lists(
        st.tuples(
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-3, max_value=3),
            st.integers(min_value=-2, max_value=2),
            st.sampled_from([1, -1, 2]).map(Scalar.from_int),
        ),
        max_size=4,
    ),
)

small_pairs = st.builds(CochainPair, small_functionals, small_functionals)


WINDOW = range(-8, 9)


def by_rule(rule, slots=1):
    """The map given by a coefficient rule (slot, n, m) -> Scalar, evaluated
    site by site on [-8, 8]^2: the pointwise route, independent of the
    stencil tables."""
    parts = [
        LatticeFunctional({(n, m): rule(k, n, m) for n in WINDOW for m in WINDOW})
        for k in range(slots)
    ]
    return parts[0] if slots == 1 else CochainPair(*parts)


class TestProductOracle:
    """The stencil tables against the defining twisted products, written here
    with TorusElement multiplication and nothing from the tables."""

    U1, U2 = TorusElement.monomial(1, 0), TorusElement.monomial(0, 1)
    U1i, U2i = TorusElement.monomial(-1, 0), TorusElement.monomial(0, -1)

    @staticmethod
    def series(phi):
        return TorusElement(phi.terms)

    @staticmethod
    def functional(x):
        return LatticeFunctional(x.terms)

    def twisted_alpha1(self, phi):
        a = self.series(phi)
        return CochainPair(
            self.functional(self.U1i * a - a * self.U1),
            self.functional(self.U2i * a - a * self.U2),
        )

    def twisted_alpha2(self, pair):
        f, g = self.series(pair.first), self.series(pair.second)
        lam = TorusElement.monomial(0, 0, LAMBDA)
        return self.functional(
            self.U2i * f - lam * f * self.U2 - lam * self.U1i * g + g * self.U1
        )

    def alpha1(self, phi):
        a = self.series(phi)
        return CochainPair(
            self.functional(self.U1 * a - a * self.U1),
            self.functional(self.U2 * a - a * self.U2),
        )

    def alpha2(self, pair):
        f, g = self.series(pair.first), self.series(pair.second)
        lam = TorusElement.monomial(0, 0, LAMBDA)
        return self.functional(self.U2 * f - lam * f * self.U2 - lam * self.U1 * g + g * self.U1)

    @given(small_functionals)
    @settings(max_examples=40, deadline=None)
    def test_degree_one_differentials(self, phi):
        for route, oracle in ((twisted_alpha1, self.twisted_alpha1), (alpha1, self.alpha1)):
            want = oracle(phi)
            got = route(phi)
            assert (got.first, got.second) == (want.first, want.second)

    @given(small_pairs)
    @settings(max_examples=40, deadline=None)
    def test_degree_two_differentials(self, pair):
        for route, oracle in ((twisted_alpha2, self.twisted_alpha2), (alpha2, self.alpha2)):
            assert route(pair) == oracle(pair)

    def test_every_table_term_mutation_disagrees(self):
        # flip the sign of one term of one entry, or raise one of its
        # exponent coefficients p, q, r by 1: the products must notice
        phi = d(2, 3) + d(-1, 2, MU) + d(1, -2, -2)
        pair = CochainPair(phi, d(3, 1) - d(-2, -1, MU))
        cases = (
            (TWISTED_ALPHA1, self.twisted_alpha1, phi),
            (TWISTED_ALPHA2, self.twisted_alpha2, pair),
            (ALPHA1, self.alpha1, phi),
            (ALPHA2, self.alpha2, pair),
        )
        mutants = 0
        for table, oracle, x in cases:
            want = oracle(x)
            assert table.apply(x) == want
            for k, (o, i, dn, dm, terms) in enumerate(table.entries):
                for t, (sign, p, q, r) in enumerate(terms):
                    for term in ((-sign, p, q, r), (sign, p + 1, q, r),
                                 (sign, p, q + 1, r), (sign, p, q, r + 1)):
                        entries = list(table.entries)
                        entries[k] = (o, i, dn, dm, terms[:t] + (term,) + terms[t + 1:])
                        assert Stencil(*entries).apply(x) != want, (table, k, term)
                        mutants += 1
        assert mutants == 4 * (4 + 4 + 2 * 2 + 2 * 2)


class TestStencilOutputs:
    """Stencil.apply builds its outputs without the constructor's checks;
    they must still hold only int sites and nonzero canonical Scalars."""

    @staticmethod
    def clean(f):
        return all(
            type(n) is int and type(m) is int and type(c) is Scalar and c.n[0] and c.n[-1]
            for (n, m), c in f.terms.items()
        )

    def test_all_eight_tables(self):
        rng = random.Random(31)

        def functional():
            # the axes, where alpha1 and alpha2 coefficients vanish, and
            # values over a non-unit denominator
            sites = [(rng.randint(-4, 4), rng.choice((0, 1, rng.randint(-4, 4)))) for _ in range(6)]
            values = (ONE, -MU, HALF, Scalar(0, (1, 1), (3, 0, 1)), mu_pow(rng.randint(-3, 3)))
            return LatticeFunctional({(n, m): rng.choice(values) for n, m in sites})

        tables = {
            TWISTED_ALPHA1: TWISTED_ALPHA2, ALPHA1: ALPHA2, TWISTED_ALPHA2: None, ALPHA2: None,
            TWISTED_PULLBACK_DEG0: None, TWISTED_PULLBACK_DEG2: None,
            UNTWISTED_PULLBACK_DEG2: None, UNTWISTED_PULLBACK_DEG1: None,
        }
        terms = 0
        for _ in range(20):
            for table, second in tables.items():
                x = functional() if table.in_slots == 1 else CochainPair(functional(), functional())
                out = table.apply(x)
                parts = (out.first, out.second) if isinstance(out, CochainPair) else (out,)
                assert all(self.clean(p) for p in parts)
                terms += sum(len(p.terms) for p in parts)
                if second is not None:
                    # every term of the composite cancels
                    assert second.apply(out).terms == {}
        assert terms > 1000


class TestFunctional:
    def test_zero_pruning_and_support(self):
        phi = LatticeFunctional({(0, 0): ONE, (1, 2): ZERO, (0, -1): 3})
        assert phi.support() == [(0, 0), (0, -1)]
        assert phi.coeff(1, 2) == ZERO

    def test_support_order_is_norm_then_lex(self):
        phi = d(1, 1) + d(0, 0) + d(-2, 0) + d(0, 2)
        assert phi.support() == [(0, 0), (-2, 0), (0, 2), (1, 1)]

    def test_linear_ops(self):
        phi = d(0, 0) + d(1, 0, LAMBDA)
        psi = phi - d(1, 0, LAMBDA)
        assert psi == d(0, 0)
        assert phi.scale(0).is_zero()
        assert (-phi) + phi == ZERO_F
        # every linear operation stays in the class of its operand
        x = TorusElement(phi.terms)
        for a in (phi, x):
            for out in (a + a, a - a.scale(HALF), -a, a.scale(LAMBDA), a.scale(0)):
                assert type(out) is type(a)

    def test_finite_equality(self):
        assert d(1, 0, LAMBDA) + d(0, 0) == d(0, 0) + d(1, 0, LAMBDA)
        assert d(1, 0, LAMBDA) != d(1, 0)
        assert d(0, 0, 0) == ZERO_F
        assert make_D(0, 0, 3) == make_D(0, 0, 4).restrict(3)
        assert (d(0, 0) == 1) is False
        assert TorusElement.one() == 1
        # a functional and a torus element with the same terms are different
        # objects: they never compare equal and never add
        phi = d(1, 0, LAMBDA) + d(0, 0)
        x = TorusElement(phi.terms)
        assert phi.terms == x.terms
        assert phi != x and x != phi
        for a, b in ((phi, x), (x, phi)):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b

    def test_pair_with(self):
        phi = d(1, 0, LAMBDA) + d(0, 1)
        x = TorusElement.monomial(1, 0, Scalar.from_int(3))
        assert phi.pair_with(x) == LAMBDA * 3

    def test_json_round_trip(self):
        phi = d(2, -1, LAMBDA) + d(0, 0, Scalar.parse("1/2"))
        again = LatticeFunctional.from_json(phi.to_json())
        assert again == phi
        assert type(again) is LatticeFunctional

    def test_non_integer_sites_are_value_errors(self):
        # a float or bool index is refused, not truncated onto (1, 0)
        for key in ((1.7, 0), (True, 0.9), (0, "2")):
            with pytest.raises(ValueError, match="must be integers"):
                LatticeFunctional({key: ONE})

    def test_non_scalar_coefficients_are_value_errors(self):
        for c in (1.5, "abc"):
            with pytest.raises(ValueError, match=r"site \(0, 0\): coefficient"):
                LatticeFunctional.delta(0, 0, c)

    def test_pair_json_names_the_bad_half(self):
        pair = CochainPair(d(1, 0), d(0, -1, LAMBDA))
        again = CochainPair.from_json(pair.to_json())
        assert again == pair
        assert type(again.first) is LatticeFunctional and type(again.second) is LatticeFunctional
        good = pair.first.to_json()
        for data, half in (
            ([1], "'first', 'second'"),
            ({"first": good}, "'second'"),
            ({"second": good}, "'first'"),
            ({"first": good, "second": 5}, "'second'"),
            ({"first": {"terms": [{"n": 0}]}, "second": good}, "'first'"),
            ({"first": good, "second": good, "third": good}, "'third'"),
        ):
            with pytest.raises(ValueError, match=half):
                CochainPair.from_json(data)


class TestTwistedAlpha1:
    def test_center_delta_anchor(self):
        # alpha1 of the delta at the origin, both components frozen
        out = twisted_alpha1(d(0, 0))
        assert out.first == d(-1, 0) - d(1, 0)
        assert out.second == d(0, -1) - d(0, 1)

    def test_coefficient_recurrence(self):
        # first[n,m] = phi[n+1,m] - lambda^m phi[n-1,m]
        # second[n,m] = lambda^-n phi[n,m+1] - phi[n,m-1]
        phi = d(1, 2, LAMBDA) + d(-1, 0) + d(2, 2, Scalar.parse("1/2"))
        out = twisted_alpha1(phi)
        for n in range(-4, 5):
            for m in range(-4, 5):
                want1 = phi.coeff(n + 1, m) - lambda_pow(m) * phi.coeff(n - 1, m)
                want2 = lambda_pow(-n) * phi.coeff(n, m + 1) - phi.coeff(n, m - 1)
                assert out.first.coeff(n, m) == want1
                assert out.second.coeff(n, m) == want2

    @given(small_functionals)
    @settings(max_examples=40, deadline=None)
    def test_rule_route_matches_series_route(self, phi):
        c = phi.coeff
        got = by_rule(
            lambda k, n, m: c(n + 1, m) - lambda_pow(m) * c(n - 1, m)
            if k == 0
            else lambda_pow(-n) * c(n, m + 1) - c(n, m - 1),
            slots=2,
        )
        assert got == twisted_alpha1(phi).restrict(8)


class TestTwistedAlpha2:
    def test_anchor_u2_slot(self):
        # (U2, 0) |-> 1 - lambda U2^2
        out = twisted_alpha2(CochainPair(d(0, 1), ZERO_F))
        assert out == d(0, 0) - d(0, 2, LAMBDA)

    def test_anchor_u1_slot(self):
        # (0, U1) |-> U1^2 - lambda
        out = twisted_alpha2(CochainPair(ZERO_F, d(1, 0)))
        assert out == d(2, 0) - d(0, 0, LAMBDA)

    def test_zero(self):
        assert twisted_alpha2(CochainPair.zero()).is_zero()

    @given(small_functionals)
    @settings(max_examples=60, deadline=None)
    def test_composite_vanishes(self, phi):
        assert twisted_alpha2(twisted_alpha1(phi)).is_zero()

    @given(small_pairs)
    @settings(max_examples=40, deadline=None)
    def test_rule_route_matches_series_route(self, pair):
        f, g = pair.first.coeff, pair.second.coeff
        got = by_rule(
            lambda k, n, m: (
                lambda_pow(-n) * f(n, m + 1) - LAMBDA * f(n, m - 1)
                - LAMBDA * g(n + 1, m) + lambda_pow(m) * g(n - 1, m)
            )
        )
        assert got == twisted_alpha2(pair).restrict(8)

    def test_scaling_coboundary_witnesses(self):
        # the three relations used to compare mirrored degree-2 classes
        assert twisted_alpha2(CochainPair(ZERO_F, d(0, 0))) == d(1, 0) - d(-1, 0, LAMBDA)
        assert twisted_alpha2(CochainPair(d(0, 0), ZERO_F)) == d(0, -1) - d(0, 1, LAMBDA)
        pair = CochainPair(d(-1, 0, -lambda_pow(-1)), d(0, 1, lambda_pow(-1)))
        assert twisted_alpha2(pair) == d(1, 1) - d(-1, -1)


class TestUntwistedAlphas:
    def test_origin_delta_is_cocycle(self):
        out = alpha1(d(0, 0))
        assert out.first.is_zero() and out.second.is_zero()

    def test_alpha1_anchor(self):
        out = alpha1(d(0, 1))
        assert out.first == d(1, 1, ONE - LAMBDA)
        assert out.second.is_zero()

    def test_alpha2_anchors(self):
        # (U2, 0) |-> (1-lambda) U2^2 and (0, U1) |-> (1-lambda) U1^2
        out = alpha2(CochainPair(d(0, 1), ZERO_F))
        assert out == d(0, 2, ONE - LAMBDA)
        out = alpha2(CochainPair(ZERO_F, d(1, 0)))
        assert out == d(2, 0, ONE - LAMBDA)

    @given(small_functionals)
    @settings(max_examples=60, deadline=None)
    def test_composite_vanishes(self, phi):
        assert alpha2(alpha1(phi)).is_zero()

    @given(small_functionals)
    @settings(max_examples=40, deadline=None)
    def test_rule_route_matches_series_route(self, phi):
        c = phi.coeff
        got = by_rule(
            lambda k, n, m: (ONE - lambda_pow(m)) * c(n - 1, m)
            if k == 0
            else (lambda_pow(n) - ONE) * c(n, m - 1),
            slots=2,
        )
        assert got == alpha1(phi).restrict(8)


class TestKernelChecks:
    def test_image_of_alpha1_passes(self):
        phi = d(2, -1, LAMBDA) + d(0, 1)
        ok, site = kernel_check_twisted_deg1(twisted_alpha1(phi), window=6)
        assert ok and site is None
        ok, site = kernel_check_untwisted_deg1(alpha1(phi), window=6)
        assert ok and site is None

    def test_u2_slot_fails_at_origin(self):
        ok, site = kernel_check_twisted_deg1(CochainPair(d(0, 1), ZERO_F), window=4)
        assert not ok and site == (0, 0)

    def test_untwisted_axis_cocycles(self):
        # (lambda^n - lambda) phi1[n,m-1] = (lambda - lambda^m) phi2[n-1,m]
        # holds for the axis deltas at (1,0) / (0,1) since both sides vanish
        ok, _ = kernel_check_untwisted_deg1(CochainPair(d(1, 0), ZERO_F), window=5)
        assert ok
        ok, _ = kernel_check_untwisted_deg1(CochainPair(ZERO_F, d(0, 1)), window=5)
        assert ok
        ok, site = kernel_check_untwisted_deg1(CochainPair(d(2, 0), ZERO_F), window=5)
        assert not ok and site == (2, 1)

    def test_zero_pair_passes(self):
        ok, _ = kernel_check_twisted_deg1(CochainPair.zero(), window=3)
        assert ok


class TestMakeD:
    def test_seed_normalization(self):
        for i in (0, 1):
            for j in (0, 1):
                assert make_D(i, j, 1).coeff(i, j) == ONE

    def test_off_class_vanishes(self):
        D = make_D(0, 1, 1)
        assert D.coeff(1, 1) == ZERO
        assert D.coeff(0, 0) == ZERO
        assert D.coeff(-1, 0) == ZERO
        assert make_D(0, 0, 2).support() == [(0, 0), (-2, 0), (0, -2), (0, 2), (2, 0),
                                             (-2, -2), (-2, 2), (2, -2), (2, 2)]

    def test_phase_formulas(self):
        # class (0,1): lambda^(2kl+k) at (2k, 2l+1)
        # class (1,0): lambda^(2kl+l) at (2k+1, 2l)
        # class (1,1): lambda^(2kl+k+l) at (2k+1, 2l+1)
        D01, D10, D11 = make_D(0, 1, 13), make_D(1, 0, 13), make_D(1, 1, 13)
        for k in range(-6, 7):
            for l in range(-6, 7):
                assert D01.coeff(2 * k, 2 * l + 1) == lambda_pow(2 * k * l + k)
                assert D10.coeff(2 * k + 1, 2 * l) == lambda_pow(2 * k * l + l)
                assert D11.coeff(2 * k + 1, 2 * l + 1) == lambda_pow(2 * k * l + k + l)

    def test_spot_values(self):
        assert make_D(0, 1, 3).coeff(2, 3) == lambda_pow(3)
        assert make_D(1, 1, 3).coeff(-3, -3) == lambda_pow(4)
        # even-even class carries phases too; forced by the kernel recurrences
        assert make_D(0, 0, 2).coeff(2, 2) == lambda_pow(2)
        assert make_D(0, 0, 2).coeff(-2, 2) == lambda_pow(-2)

    def test_kernel_recurrences_on_window(self):
        # phi[n+2,m] = lambda^m phi[n,m] and phi[n,m+2] = lambda^n phi[n,m]
        for i in (0, 1):
            for j in (0, 1):
                D = make_D(i, j, 7)
                for n in range(-5, 6):
                    for m in range(-5, 6):
                        assert D.coeff(n + 2, m) == lambda_pow(m) * D.coeff(n, m)
                        assert D.coeff(n, m + 2) == lambda_pow(n) * D.coeff(n, m)

    def test_in_twisted_kernel(self):
        for i in (0, 1):
            for j in (0, 1):
                out = twisted_alpha1(make_D(i, j, 7)).restrict(6)
                assert out.first.is_zero() and out.second.is_zero()

    def test_bad_class_rejected(self):
        with pytest.raises(ValueError):
            make_D(2, 0, 3)


class TestTwistedPullbacks:
    def test_deg0_fixes_generators(self):
        for i in (0, 1):
            for j in (0, 1):
                D = make_D(i, j, 5)
                assert twisted_pullback_deg0(D) == D

    def test_deg0_mirror(self):
        phi = d(1, -2, LAMBDA)
        assert twisted_pullback_deg0(phi) == d(-1, 2, LAMBDA)

    def test_deg2_coefficient_rule(self):
        # psi[a,b] = lambda^(b-a-1) phi[-a,-b]
        assert twisted_pullback_deg2(d(0, 0)) == d(0, 0, lambda_pow(-1))
        assert twisted_pullback_deg2(d(1, 0)) == d(-1, 0)
        assert twisted_pullback_deg2(d(0, 1)) == d(0, -1, lambda_pow(-2))
        assert twisted_pullback_deg2(d(1, 1)) == d(-1, -1, lambda_pow(-1))

    @given(small_functionals)
    @settings(max_examples=40, deadline=None)
    def test_deg2_agrees_with_conjugation(self, phi):
        # dual route: evaluate phi against U1 U2 sigma(x) U1^-1 U2^-1
        psi = twisted_pullback_deg2(phi)
        mono = TorusElement.monomial
        left = mono(1, 0) * mono(0, 1)
        right = mono(-1, 0) * mono(0, -1)
        for (n, m) in [(0, 0), (1, 0), (-2, 3), (1, 1)]:
            x = mono(n, m)
            assert psi.pair_with(x) == phi.pair_with(left * x.sigma() * right)

    @given(small_functionals)
    @settings(max_examples=40, deadline=None)
    def test_rule_route_matches_series_route(self, phi):
        c = phi.coeff
        assert by_rule(lambda k, a, b: c(-a, -b)) == twisted_pullback_deg0(phi).restrict(8)
        got = by_rule(lambda k, a, b: lambda_pow(b - a - 1) * c(-a, -b))
        assert got == twisted_pullback_deg2(phi).restrict(8)

    def test_deg2_square_is_single_monomial(self):
        # flip squared acts by the inner twist lambda^-2
        phi = d(2, -1, LAMBDA) + d(0, 0)
        twice = twisted_pullback_deg2(twisted_pullback_deg2(phi))
        assert twice == phi.scale(lambda_pow(-2))

    def test_deg2_scales_classes_by_inverse_lambda(self):
        # pullback(delta) - lambda^-1 delta is a coboundary, exhibited exactly
        lam1 = lambda_pow(-1)
        diff = twisted_pullback_deg2(d(0, 0)) - d(0, 0, lam1)
        assert diff.is_zero()
        diff = twisted_pullback_deg2(d(1, 0)) - d(1, 0, lam1)
        assert diff == twisted_alpha2(CochainPair(ZERO_F, d(0, 0, -lam1)))
        diff = twisted_pullback_deg2(d(0, 1)) - d(0, 1, lam1)
        assert diff == twisted_alpha2(CochainPair(d(0, 0, lambda_pow(-2)), ZERO_F))
        diff = twisted_pullback_deg2(d(1, 1)) - d(1, 1, lam1)
        assert diff == twisted_alpha2(
            CochainPair(d(-1, 0, lambda_pow(-2)), d(0, 1, -lambda_pow(-2)))
        )


class TestUntwistedPullbacks:
    def test_deg2_fixes_generator(self):
        assert untwisted_pullback_deg2(d(-1, -1)) == d(-1, -1)

    def test_deg2_coefficient_rule(self):
        # psi[a,b] = lambda^(a+b+2) phi[-2-a,-2-b]
        assert untwisted_pullback_deg2(d(1, 1)) == d(-3, -3, lambda_pow(-4))
        assert untwisted_pullback_deg2(d(0, 0)) == d(-2, -2, lambda_pow(-2))

    @given(small_functionals)
    @settings(max_examples=40, deadline=None)
    def test_deg2_agrees_with_conjugation(self, phi):
        # dual route: phi against U1^-1 U2^-1 sigma(x) U2^-1 U1^-1
        psi = untwisted_pullback_deg2(phi)
        mono = TorusElement.monomial
        left = mono(-1, 0) * mono(0, -1)
        right = mono(0, -1) * mono(-1, 0)
        for (n, m) in [(0, 0), (-1, -1), (2, -3), (1, 1)]:
            x = mono(n, m)
            assert psi.pair_with(x) == phi.pair_with(left * x.sigma() * right)

    @given(small_pairs)
    @settings(max_examples=40, deadline=None)
    def test_rule_route_matches_series_route(self, pair):
        f, g = pair.first.coeff, pair.second.coeff
        got = by_rule(lambda k, a, b: lambda_pow(a + b + 2) * f(-2 - a, -2 - b))
        assert got == untwisted_pullback_deg2(pair.first).restrict(8)
        got = by_rule(
            lambda k, a, b: -lambda_pow(b) * f(-2 - a, -b)
            if k == 0
            else -lambda_pow(a) * g(-a, -2 - b),
            slots=2,
        )
        assert got == untwisted_pullback_deg1(pair).restrict(8)

    def test_deg2_is_involutive(self):
        phi = d(2, -1, LAMBDA) + d(0, 0) + d(-1, -1)
        assert untwisted_pullback_deg2(untwisted_pullback_deg2(phi)) == phi

    def test_deg1_negates_generators(self):
        gen1 = CochainPair(d(-1, 0), ZERO_F)
        out = untwisted_pullback_deg1(gen1)
        assert out.first == d(-1, 0, Scalar.from_int(-1))
        assert out.second.is_zero()
        gen2 = CochainPair(ZERO_F, d(0, -1))
        out = untwisted_pullback_deg1(gen2)
        assert out.first.is_zero()
        assert out.second == d(0, -1, Scalar.from_int(-1))

    def test_deg1_coefficient_rule(self):
        # w1[a,b] = -lambda^b phi1[-2-a,-b], w2[a,b] = -lambda^a phi2[-a,-2-b]
        out = untwisted_pullback_deg1(CochainPair(d(1, 0), d(0, 1)))
        assert out.first == d(-3, 0, Scalar.from_int(-1))
        assert out.second == d(0, -3, Scalar.from_int(-1))

    @given(small_pairs)
    @settings(max_examples=40, deadline=None)
    def test_deg1_is_involutive(self, pair):
        twice = untwisted_pullback_deg1(untwisted_pullback_deg1(pair))
        assert twice.first == pair.first and twice.second == pair.second
