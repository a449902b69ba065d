"""Trace identities, the volume cocycle, and the thirty pairing values."""

from __future__ import annotations

import random

import pytest

from ncgeo import pairing as pairing_mod
from ncgeo.scalars import HALF, LAMBDA, MU, ONE, ZERO, Scalar, lambda_pow, mu_pow, parse_scalar
from ncgeo.torus import Series, TorusElement, U1, U2, u1, u2
from ncgeo.crossed import CrossedElement, PROJECTION_NAMES, is_projection, make_projection
from ncgeo.pairing import (
    COLUMNS,
    COLUMN_COCYCLES,
    ConnesTwoCocycle,
    NotAProjection,
    Trace,
    TwistedTrace,
    build_table,
    connes_torus_cocycle,
    evaluate,
    pair,
    table_value,
    text_value,
)


def random_torus(rng, radius=2, size=2):
    out = TorusElement()
    for _ in range(size):
        n = rng.randint(-radius, radius)
        m = rng.randint(-radius, radius)
        c = mu_pow(rng.randint(-2, 2)) * rng.choice([1, -1, 2])
        out = out + TorusElement.monomial(n, m, c)
    return out


def random_crossed(rng):
    return CrossedElement(random_torus(rng), random_torus(rng))


# binomial numerators and non-unit denominators, as well as monomials
RICH_COEFFS = [
    Scalar.parse(t)
    for t in ("1", "-2", "u", "1/u^3", "1 - u^2", "1/(1 - u^2)", "(1 + u)/(2 - u^4)")
]


def random_series(rng):
    """0-6 terms of radius 1-3: about one triple in five closes with a
    nonzero factor, and some elements are empty."""
    radius = rng.choice((1, 1, 2, 3))
    terms = {}
    for _ in range(rng.randint(0, 6)):
        site = (rng.randint(-radius, radius), rng.randint(-radius, radius))
        terms[site] = rng.choice(RICH_COEFFS) * mu_pow(rng.randint(-2, 2))
    return TorusElement(terms)


def product_route(a, b, c):
    """The defining formula of the volume cocycle: whole twisted products,
    then the coefficient at the identity."""
    return (a * (b.delta(1) * c.delta(2) - b.delta(2) * c.delta(1))).trace()


def product_route_phi(x0, x1, x2):
    a0, b0, a1, b1, a2, b2 = x0.even, x0.odd, x1.even, x1.odd, x2.even, x2.odd
    return (
        product_route(a0, a1, a2)
        + product_route(a0, b1, b2.sigma())
        + product_route(b0, a1.sigma(), b2.sigma())
        + product_route(b0, b1.sigma(), a2)
    )


def weight(i, j, n, m):
    """psi_ij of the odd monomial at (n, m): its phase w_ij(n, m)."""
    odd = CrossedElement(None, TorusElement.monomial(n, m))
    return evaluate(TwistedTrace(i, j), [odd])


def trace_property(i, j, x, y):
    """The trace identity psi_ij(xy) = psi_ij(yx) on one pair."""
    psi = TwistedTrace(i, j)
    return evaluate(psi, [x * y]) == evaluate(psi, [y * x])


class TestTwistedWeight:
    def test_seed_normalization(self):
        for i in (0, 1):
            for j in (0, 1):
                assert weight(i, j, i, j) == ONE

    def test_off_class_zero(self):
        assert weight(1, 0, 0, 0) == ZERO
        assert weight(0, 0, 1, 1) == ZERO

    def test_spot_phases(self):
        assert weight(1, 1, 1, -1) == LAMBDA
        assert weight(0, 1, 2, 1) == lambda_pow(-1)
        assert weight(1, 0, 3, 2) == lambda_pow(-3)

    def test_trace_forced_relation(self):
        # w(n-2p, m-2q) = lambda^(qn + pm - 2pq) w(n,m) on each parity class
        for i in (0, 1):
            for j in (0, 1):
                for n in range(i - 4, 5, 2):
                    for m in range(j - 4, 5, 2):
                        for p, q in ((1, 0), (0, 1), (1, 1), (-1, 2)):
                            lhs = weight(i, j, n - 2 * p, m - 2 * q)
                            rhs = lambda_pow(q * n + p * m - 2 * p * q) * weight(i, j, n, m)
                            assert lhs == rhs


class TestTraceIdentity:
    def test_random_pairs(self):
        rng = random.Random(3)
        for _ in range(25):
            x, y = random_crossed(rng), random_crossed(rng)
            for i in (0, 1):
                for j in (0, 1):
                    assert trace_property(i, j, x, y)

    def test_monomial_anchor(self):
        x = CrossedElement(U1, None)
        y = CrossedElement(None, u1(-1))
        assert trace_property(1, 0, x, y)

    def test_corrupted_table_detected(self):
        # the transposed phase profile satisfies the kernel recurrences of
        # make_D but not the trace identity; this pair witnesses the failure
        bad = lambda n, m: lambda_pow((n * m) // 2) if (n % 2, m % 2) == (1, 0) else ZERO

        def corrupted(odd):
            total = ZERO
            for (n, m), c in odd.terms.items():
                total = total + bad(n, m) * c
            return total

        x = CrossedElement(u2(2), None)
        y = CrossedElement(None, u1(1) * u2(2))
        assert trace_property(1, 0, x, y)
        assert corrupted((x * y).odd) != corrupted((y * x).odd)


class TestEvaluate:
    def test_trace_on_identity(self):
        assert evaluate(Trace(), [CrossedElement.one()]) == ONE

    def test_twisted_trace_on_projections(self):
        assert evaluate(TwistedTrace(0, 0), [make_projection("p")]) == HALF
        assert evaluate(TwistedTrace(1, 0), [make_projection("q0")]) == -HALF
        assert evaluate(TwistedTrace(0, 1), [make_projection("q1")]) == -HALF
        assert evaluate(TwistedTrace(1, 1), [make_projection("r")]) == -(MU * HALF)

    def test_arity_checks(self):
        e = make_projection("p")
        with pytest.raises(ValueError):
            evaluate(Trace(), [e, e])
        with pytest.raises(ValueError):
            evaluate(ConnesTwoCocycle(), [e])

    def test_parity_validation(self):
        with pytest.raises(ValueError):
            TwistedTrace(2, 0)

    def test_pair_rejects_non_projection(self):
        bad = CrossedElement(U1, None)
        with pytest.raises(NotAProjection) as exc:
            pair(bad, Trace())
        assert not exc.value.check.idempotency_defect.is_zero()


class TestConnesCocycle:
    def test_volume_anchor(self):
        a = u2(-1) * u1(-1)
        assert connes_torus_cocycle(a, U1, U2) == ONE

    def test_cyclic_on_torus(self):
        rng = random.Random(11)
        for _ in range(20):
            a, b, c = (random_torus(rng) for _ in range(3))
            assert connes_torus_cocycle(a, b, c) == connes_torus_cocycle(c, a, b)

    def test_hochschild_cocycle(self):
        rng = random.Random(13)
        for _ in range(15):
            a0, a1, a2, a3 = (random_torus(rng) for _ in range(4))
            b = (
                connes_torus_cocycle(a0 * a1, a2, a3)
                - connes_torus_cocycle(a0, a1 * a2, a3)
                + connes_torus_cocycle(a0, a1, a2 * a3)
                - connes_torus_cocycle(a3 * a0, a1, a2)
            )
            assert b == ZERO

    def test_flip_invariance(self):
        rng = random.Random(17)
        for _ in range(15):
            a, b, c = (random_torus(rng) for _ in range(3))
            assert connes_torus_cocycle(a.sigma(), b.sigma(), c.sigma()) == (
                connes_torus_cocycle(a, b, c)
            )

    def test_crossed_extension_cyclic(self):
        rng = random.Random(19)
        phi = ConnesTwoCocycle()
        for _ in range(10):
            x0, x1, x2 = (random_crossed(rng) for _ in range(3))
            assert evaluate(phi, [x0, x1, x2]) == evaluate(phi, [x2, x0, x1])

    def test_projection_column_zero(self):
        phi = ConnesTwoCocycle()
        for name in PROJECTION_NAMES:
            assert pair(make_projection(name), phi) == ZERO


class TestProductRouteOracle:
    """The contracted sum against the whole-product definition; the cyclic,
    Hochschild and flip tests above would also pass for the zero map."""

    def test_torus_triples(self):
        rng = random.Random(23)
        closed = 0
        for _ in range(600):
            a, b, c = (random_series(rng) for _ in range(3))
            value = connes_torus_cocycle(a, b, c)
            assert value == product_route(a, b, c)
            closed += bool(value)
        assert closed >= 100

    def test_crossed_triples(self):
        rng = random.Random(29)
        phi = ConnesTwoCocycle()
        closed = 0
        for _ in range(400):
            x = [CrossedElement(random_series(rng), random_series(rng)) for _ in range(3)]
            value = evaluate(phi, x)
            assert value == product_route_phi(*x)
            closed += bool(value)
        assert closed >= 100

    def test_rational_coefficients(self):
        # 1/(1 - u^2) and a binomial on closing sites: the value is exact
        a = TorusElement({(-1, -1): RICH_COEFFS[5], (0, 0): ONE})
        b = TorusElement({(1, 0): RICH_COEFFS[4], (0, -1): MU})
        c = TorusElement({(0, 1): ONE, (1, 2): RICH_COEFFS[6]})
        value = connes_torus_cocycle(a, b, c)
        assert value == product_route(a, b, c)
        assert value.d != (1,)

    def test_empty_and_unclosed(self):
        zero = TorusElement()
        some = U1 + U2.scale(MU)
        for args in ((zero, some, some), (some, zero, some), (some, some, zero)):
            assert connes_torus_cocycle(*args) == ZERO
        # every term has a positive first index, so no triple closes
        a, b, c = U1, U1 + u1(2) * U2, u1(3).scale(RICH_COEFFS[5])
        assert product_route(a, b, c) == ZERO
        assert connes_torus_cocycle(a, b, c) == ZERO

    def test_one_phi_takes_few_scalar_products(self, monkeypatch):
        # the three whole torus products per term made 388 here
        rng = random.Random(3)
        x = [CrossedElement(random_series(rng), random_series(rng)) for _ in range(3)]
        products = 0
        mul = Scalar.__mul__

        def counting(self, other):
            nonlocal products
            products += 1
            return mul(self, other)

        monkeypatch.setattr(Scalar, "__mul__", counting)
        value = evaluate(ConnesTwoCocycle(), x)
        assert value
        assert 0 < products <= 388 // 4

    def test_no_torus_products(self, monkeypatch):
        def refuse(self, other):
            raise AssertionError("a torus product was taken")

        rng = random.Random(31)
        x = [random_crossed(rng) for _ in range(3)]
        expected = product_route_phi(*x)
        monkeypatch.setattr(TorusElement, "__mul__", refuse)
        assert evaluate(ConnesTwoCocycle(), x) == expected


class TestTrustedSeries:
    """The algebra builds every series from terms it made itself: products,
    stars, traces, Phi and the pairings never reach the validating Series
    constructor, and what they build is what an unpatched run builds."""

    def test_algebra_builds_no_validated_series(self, monkeypatch):
        rng = random.Random(67)
        projections = [make_projection(name) for name in PROJECTION_NAMES]
        triples = [
            [CrossedElement(random_series(rng), random_series(rng)) for _ in range(3)]
            for _ in range(20)
        ]
        phi = ConnesTwoCocycle()

        def run():
            out = []
            for e in projections:
                check = is_projection(e)
                out += [check.ok, check.idempotency_defect, check.adjoint_defect]
            out += [pair(e, COLUMN_COCYCLES[col]) for e in projections for col in COLUMNS]
            for x, y, z in triples:
                xy = x * y
                out += [xy, x.star(), evaluate(phi, [x, y, z])]
                out += [evaluate(TwistedTrace(i, j), [xy]) for i in (0, 1) for j in (0, 1)]
            return [(v.to_json() if hasattr(v, "to_json") else None, str(v)) for v in out]

        want = run()

        def refuse(*args, **kwargs):
            raise AssertionError("the algebra validated a series it built")

        monkeypatch.setattr(Series, "__init__", refuse)
        got = run()
        monkeypatch.undo()
        assert got == want


class TestTraceInvariance:
    def test_unitary_conjugation(self):
        for name in PROJECTION_NAMES:
            e = make_projection(name)
            for n, m in ((1, 0), (0, 1), (2, -1)):
                u = CrossedElement(TorusElement.monomial(n, m), None)
                conj = u * e * u.star()
                assert pair(conj, Trace()) == pair(e, Trace())


class TestPairingTable:
    def test_all_thirty_match_itemized_values(self):
        table = build_table()
        for row in table.rows:
            for col in table.cols:
                assert table.value(row, col) == text_value(row, col)
                assert table.agrees_text(row, col)

    def test_summary_table_disagreements_flagged(self):
        table = build_table()
        off = {
            (row, col)
            for row in table.rows
            for col in table.cols
            if not table.agrees_table(row, col)
        }
        assert off == {
            ("p", "S_D11"),
            ("p", "S_D00"),
            ("q0", "S_D01"),
            ("q0", "S_D10"),
            ("q1", "S_D00"),
            ("q1", "S_D01"),
            ("r", "S_D10"),
            ("r", "S_D11"),
        }

    def test_discrepancy_records(self):
        table = build_table()
        recs = table.discrepancies()
        assert len(recs) == 8
        r_rec = [d for d in recs if d["row"] == "r" and d["col"] == "S_D11"][0]
        assert r_rec["computed"] == "-u/2"
        assert r_rec["table"] == "0"
        rr = [d for d in recs if d["row"] == "r" and d["col"] == "S_D10"][0]
        assert rr["table"] == "-u^2/2"

    def test_row_values(self):
        table = build_table()
        assert [str(table.value("one", c)) for c in COLUMNS] == ["1", "0", "0", "0", "0", "0"]
        assert [str(table.value("q0", c)) for c in COLUMNS] == ["1/2", "0", "0", "0", "-1/2", "0"]

    def test_formats(self):
        table = build_table()
        data = table.to_json()
        assert data["rows"] == list(PROJECTION_NAMES)
        assert len(data["cells"]) == 30
        assert {"row", "col", "value", "agrees_text", "agrees_table"} <= set(data["cells"][0])
        csv = table.to_csv()
        lines = csv.strip().split("\n")
        assert len(lines) == 6
        assert lines[0] == "projection," + ",".join(COLUMNS)
        text = table.to_text(annotate=True)
        assert "note:" in text
        assert "q_1" in text

    def test_trace_minor_is_triangular(self):
        # on the trace columns in this order the table is lower triangular,
        # so its determinant is the product of the pivots: -u/16
        sympy = pytest.importorskip("sympy")
        u = sympy.Symbol("u")
        cols = ("S_tau", "S_D00", "S_D10", "S_D01", "S_D11")
        text = {(c["row"], c["col"]): c["value"] for c in build_table().to_json()["cells"]}
        minor = [[parse_scalar(text[(row, col)]) for col in cols] for row in PROJECTION_NAMES]
        for k, row in enumerate(minor):
            assert not any(row[k + 1:])
        assert [minor[k][k] for k in range(5)] == [ONE, HALF, -HALF, -HALF, -(MU * HALF)]

        def expr(x):
            # x = u**s * num / den, as in the sympy oracle of the scalars
            num = sum(c * u**k for k, c in enumerate(x.n))
            den = sum(c * u**k for k, c in enumerate(x.d))
            return u**x.s * num / den

        det = sympy.Matrix([[expr(x) for x in row] for row in minor]).det()
        assert sympy.cancel(det + u / 16) == 0

    def test_deterministic(self):
        assert build_table().to_json() == build_table().to_json()

    def test_checks_each_projection_once(self, monkeypatch):
        # a check per cell made 30, six per projection
        checks = []
        check = pairing_mod.is_projection
        monkeypatch.setattr(pairing_mod, "is_projection", lambda e: checks.append(e) or check(e))
        build_table()
        assert len(checks) == len(PROJECTION_NAMES)

    def test_refuses_a_non_projection(self, monkeypatch):
        make = pairing_mod.make_projection
        monkeypatch.setattr(
            pairing_mod, "make_projection",
            lambda name: CrossedElement(U1, None) if name == "r" else make(name),
        )
        with pytest.raises(NotAProjection):
            build_table()
