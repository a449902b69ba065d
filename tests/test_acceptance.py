"""Acceptance gate: the eleven headline checks, one pass/fail line each.

Lines are written straight to the terminal (bypassing capture) so the gate
reads as a checklist in any test log.  Every check is exact in the formal
scalar field unless a runtime budget is stated.
"""

from __future__ import annotations

import json
import random
import time

import pytest

from ncgeo.scalars import HALF, LAMBDA, ONE, ZERO, lambda_pow, mu_pow
from ncgeo.torus import TorusElement, U1, U2
from ncgeo.crossed import CrossedElement, PROJECTION_NAMES, is_projection, make_projection
from ncgeo.cochains import (
    CochainPair,
    LatticeFunctional,
    alpha1,
    alpha2,
    make_D,
    site_key,
    twisted_alpha1,
    twisted_alpha2,
    twisted_pullback_deg2,
    untwisted_pullback_deg1,
    untwisted_pullback_deg2,
)
from ncgeo.solver import OPERATORS, coboundary_solve, h1_trivialize, kernel_dimension
from ncgeo.pairing import build_table, connes_torus_cocycle, text_value
from ncgeo.cli import main as cli_main


_CAPSYS = None


@pytest.fixture(autouse=True)
def _terminal(capsys):
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _line(num: int, ok: bool, text: str) -> None:
    msg = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} - {text}"
    with _CAPSYS.disabled():
        print(msg, flush=True)
    assert ok, f"criterion {num} failed: {text}"


def _random_functional(rng: random.Random) -> LatticeFunctional:
    terms = {}
    for _ in range(rng.randint(1, 8)):
        n = rng.randint(-8, 8)
        m = rng.randint(-8, 8)
        terms[(n, m)] = mu_pow(rng.randint(-3, 3)) * rng.choice([1, -1, 2, -2])
    return LatticeFunctional(terms)


d = LatticeFunctional.delta
ZF = LatticeFunctional.zero()


def test_criterion_01_projection_suite():
    t0 = time.monotonic()
    ok = all(is_projection(make_projection(name)).ok for name in PROJECTION_NAMES)
    half = TorusElement.monomial(0, 0, HALF)
    corrupt = CrossedElement(half, (U1 * U2).scale(-(HALF * LAMBDA)))
    ok = ok and not is_projection(corrupt).ok
    elapsed = time.monotonic() - t0
    _line(1, ok and elapsed < 1.0,
          f"five projections exact, corrupted r rejected ({elapsed:.2f}s)")


def test_criterion_02_differential_anchors():
    ok = twisted_alpha2(CochainPair(d(0, 1), ZF)) == d(0, 0) - d(0, 2, LAMBDA)
    ok = ok and twisted_alpha2(CochainPair(ZF, d(1, 0))) == d(2, 0) - d(0, 0, LAMBDA)
    ok = ok and alpha2(CochainPair(d(0, 1), ZF)) == d(0, 2, ONE - LAMBDA)
    ok = ok and alpha2(CochainPair(ZF, d(1, 0))) == d(2, 0, ONE - LAMBDA)
    _line(2, ok, "all four degree-2 anchor values exact")


def test_criterion_03_complex_property():
    t0 = time.monotonic()
    rng = random.Random(101)
    ok = True
    for _ in range(200):
        phi = _random_functional(rng)
        ok = ok and twisted_alpha2(twisted_alpha1(phi)).is_zero()
        ok = ok and alpha2(alpha1(phi)).is_zero()
    elapsed = time.monotonic() - t0
    _line(3, ok and elapsed < 30.0,
          f"alpha2 after alpha1 vanished on 200 random functionals, both complexes ({elapsed:.1f}s)")


def test_criterion_04_kernel_dimensions():
    ok = True
    for window in range(3, 9):
        twisted = kernel_dimension("twisted_alpha1", window)
        untwisted = kernel_dimension("alpha1", window)
        ok = ok and twisted.nullity == 4 and untwisted.nullity == 1
        lasts = []
        for vec in twisted.basis:
            site = vec.support()[0]
            D = make_D(site[0] % 2, site[1] % 2, window)
            # normalized to 1 at the class's last site in the window
            last = max(D.terms, key=site_key)
            ok = ok and vec == D.scale(ONE / D.coeff(*last))
            lasts.append(last)
        ok = ok and lasts == sorted(lasts, key=site_key)
        ok = ok and {(n % 2, m % 2) for n, m in lasts} == {(0, 0), (0, 1), (1, 0), (1, 1)}
        ok = ok and untwisted.basis == (d(0, 0),)
    _line(4, ok, "windowed nullities 4/1 for radii 3..8, bases are the D family and delta(0,0)")


def test_criterion_05_generator_phases():
    ok = True
    D01, D10, D11 = make_D(0, 1, 13), make_D(1, 0, 13), make_D(1, 1, 13)
    for k in range(-6, 7):
        for l in range(-6, 7):
            ok = ok and D01.coeff(2 * k, 2 * l + 1) == lambda_pow(2 * k * l + k)
            ok = ok and D10.coeff(2 * k + 1, 2 * l) == lambda_pow(2 * k * l + l)
            ok = ok and D11.coeff(2 * k + 1, 2 * l + 1) == lambda_pow(2 * k * l + k + l)
    _line(5, ok, "all three phase formulas exact for |k|,|l| <= 6")


def test_criterion_06_pullback_scaling():
    lam_inv = lambda_pow(-1)
    witnesses = {
        (0, 0): None,
        (1, 0): CochainPair(ZF, d(0, 0, -lam_inv)),
        (0, 1): CochainPair(d(0, 0, lambda_pow(-2)), ZF),
        (1, 1): CochainPair(d(-1, 0, lambda_pow(-2)), d(0, 1, -lambda_pow(-2))),
    }
    ok = True
    for (i, j), wit in witnesses.items():
        diff = twisted_pullback_deg2(d(i, j)) - d(i, j, lam_inv)
        ok = ok and (diff.is_zero() if wit is None else diff == twisted_alpha2(wit))
    ok = ok and untwisted_pullback_deg2(d(-1, -1)) == d(-1, -1)
    gen1 = CochainPair(d(-1, 0), ZF)
    gen2 = CochainPair(ZF, d(0, -1))
    ok = ok and untwisted_pullback_deg1(gen1) == CochainPair(-gen1.first, ZF)
    ok = ok and untwisted_pullback_deg1(gen2) == CochainPair(ZF, -gen2.second)
    _line(6, ok, "twisted classes scale by 1/lambda; untwisted generators fixed/negated")


def test_criterion_07_h1_trivialization():
    t0 = time.monotonic()
    rng = random.Random(7)
    passed = 0
    for _ in range(100):
        pair = twisted_alpha1(_random_functional(rng))
        rep = h1_trivialize(pair, 10)
        if rep.status == "solved" and rep.residual.is_zero():
            passed += 1
    elapsed = time.monotonic() - t0
    _line(7, passed == 100 and elapsed < 120.0,
          f"{passed}/100 seeded coboundaries trivialized with zero residual ({elapsed:.1f}s)")


def _certificate_is_independent(rep, target, operator, window) -> bool:
    apply = OPERATORS[operator].apply
    combo = dict(rep.certificate)
    for slot in (0, 1):
        for n in range(-window, window + 1):
            for m in range(-window, window + 1):
                unit = CochainPair(d(n, m), ZF) if slot == 0 else CochainPair(ZF, d(n, m))
                image = apply(unit)
                total = ZERO
                for (_, site), mult in combo.items():
                    total = total + mult * image.coeff(*site)
                if total != ZERO:
                    return False
    against = ZERO
    for (_, site), mult in combo.items():
        against = against + mult * target.coeff(*site)
    return against != ZERO


def test_criterion_08_membership_probes():
    ok = True
    for site in ((0, 2), (2, 0)):
        for radius in (4, 5, 6):
            rep = coboundary_solve(d(*site), "alpha2", radius)
            ok = ok and rep.status == "solved" and alpha2(rep.witness) == d(*site)
    unsolvable = [("twisted_alpha2", s) for s in ((0, 0), (1, 0), (0, 1), (1, 1))]
    unsolvable.append(("alpha2", (1, 1)))
    for operator, site in unsolvable:
        for radius in (4, 5, 6):
            rep = coboundary_solve(d(*site), operator, radius)
            ok = ok and rep.status == "unsolvable" and rep.certificate is not None
        ok = ok and _certificate_is_independent(
            coboundary_solve(d(*site), operator, 4), d(*site), operator, 4
        )
    # the recorded untwisted generator name (-1,-1) is dual indexing for the
    # same class; as a coefficient delta that site has an explicit preimage
    hand = CochainPair(d(-1, -2, ONE / (lambda_pow(-1) - LAMBDA)), ZF)
    ok = ok and alpha2(hand) == d(-1, -1)
    for radius in (4, 5, 6):
        rep = coboundary_solve(d(-1, -1), "alpha2", radius)
        ok = ok and rep.status == "solved"
    _line(8, ok, "probes exact at radii 4,5,6; untwisted generator at (1,1), "
          "recorded (-1,-1) site is its dual-indexed name and is solvable (see ledger)")


def test_criterion_09_pairing_table():
    t0 = time.monotonic()
    table = build_table()
    ok = all(
        table.value(row, col) == text_value(row, col)
        for row in table.rows
        for col in table.cols
    )
    flagged = {
        (row, col)
        for row in table.rows
        for col in table.cols
        if not table.agrees_table(row, col)
    }
    ok = ok and {("p", "S_D11"), ("p", "S_D00"), ("r", "S_D10"), ("r", "S_D11")} <= flagged
    elapsed = time.monotonic() - t0
    _line(9, ok and elapsed < 5.0,
          f"30/30 itemized pairing values exact, summary-table discrepancies flagged ({elapsed:.2f}s)")


def test_criterion_10_connes_cocycle_properties():
    rng = random.Random(23)

    def rand_torus():
        out = TorusElement()
        for _ in range(2):
            out = out + TorusElement.monomial(
                rng.randint(-2, 2), rng.randint(-2, 2),
                mu_pow(rng.randint(-2, 2)) * rng.choice([1, -1, 2]),
            )
        return out

    ok = True
    for _ in range(50):
        a0, a1, a2, a3 = (rand_torus() for _ in range(4))
        ok = ok and connes_torus_cocycle(a0, a1, a2) == connes_torus_cocycle(a2, a0, a1)
        ok = ok and connes_torus_cocycle(a0.sigma(), a1.sigma(), a2.sigma()) == (
            connes_torus_cocycle(a0, a1, a2)
        )
        b = (
            connes_torus_cocycle(a0 * a1, a2, a3)
            - connes_torus_cocycle(a0, a1 * a2, a3)
            + connes_torus_cocycle(a0, a1, a2 * a3)
            - connes_torus_cocycle(a3 * a0, a1, a2)
        )
        ok = ok and b == ZERO
    _line(10, ok, "cyclicity, Hochschild identity, and flip invariance exact on 50 tuples")


def test_criterion_11_determinism(capsys):
    outputs = []
    for _ in range(2):
        argv = ["cohomology-report", "--window", "3", "--h1-trials", "3",
                "--seed", "11", "--format", "json"]
        code = cli_main(argv)
        text = capsys.readouterr().out
        outputs.append((code, text))
        cli_main(["pairing-table", "--format", "json"])
        outputs.append(capsys.readouterr().out)
        cli_main(["dimension-report", "--window", "3", "--format", "json"])
        outputs.append(capsys.readouterr().out)
    ok = outputs[0] == outputs[3] and outputs[1] == outputs[4] and outputs[2] == outputs[5]
    ok = ok and json.loads(outputs[1])["all_text_ok"] is True
    _line(11, ok, "repeated runs with fixed seed and config are byte-identical")
