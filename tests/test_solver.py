"""Windowed kernels, membership solves with certificates, degree-1 solver."""

from __future__ import annotations

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from ncgeo import scalars
from ncgeo.scalars import HALF, LAMBDA, MU, ONE, ZERO, Scalar, lambda_pow, mu_pow
from ncgeo.cochains import (
    CochainPair,
    LatticeFunctional,
    alpha1,
    alpha2,
    cochain_from_slots,
    cochain_slots,
    coefficient,
    kernel_check_untwisted_deg1,
    make_D,
    site_key,
    twisted_alpha1,
    twisted_alpha2,
)
from ncgeo import cochains, solver
from ncgeo.torus import TorusElement
from ncgeo.solver import (
    OPERATORS,
    NotACocycle,
    RecurrenceViolation,
    SolveReport,
    coboundary_solve,
    h1_trivialize,
    kernel_dimension,
    line_eliminate,
    row_solve,
)


def d(n, m, c=1):
    return LatticeFunctional.delta(n, m, c)


ZF = LatticeFunctional.zero()
# wrong types where a LatticeFunctional belongs: a series, a pair, and a
# coefficient rule (the closed form of D(0,0) as a bare function)
SERIES = TorusElement.monomial(0, 0)


def d00_rule(n, m):
    return lambda_pow((n * m) // 2) if n % 2 == 0 and m % 2 == 0 else ZERO


def clean(f):
    """What LatticeFunctional._of leaves unchecked: int sites and nonzero
    Scalar values, here also in canonical form."""
    return all(
        type(n) is int and type(m) is int and type(c) is Scalar and c.n[0] and c.n[-1]
        for (n, m), c in f.terms.items()
    )


def random_functional(rng, radius=3, size=4):
    terms = {}
    for _ in range(size):
        n = rng.randint(-radius, radius)
        m = rng.randint(-radius, radius)
        terms[(n, m)] = mu_pow(rng.randint(-2, 2)) * rng.choice([1, -1, 2])
    return LatticeFunctional(terms)


class TestKernelDimension:
    def test_twisted_nullity_is_four(self):
        for window in (3, 4):
            rep = kernel_dimension("twisted_alpha1", window)
            assert rep.status == "kernel-basis"
            assert rep.nullity == 4
            assert len(rep.basis) == 4

    def test_twisted_basis_matches_generators(self):
        # each vector is D(i, j) scaled to 1 at the class's last site in the
        # window, the free variable; the vectors come in the order of those sites
        window = 4
        rep = kernel_dimension("twisted_alpha1", window)
        lasts = []
        for vec in rep.basis:
            site = vec.support()[0]
            D = make_D(site[0] % 2, site[1] % 2, window)
            last = max(D.terms, key=site_key)
            assert vec == D.scale(ONE / D.coeff(*last))
            lasts.append(last)
        assert lasts == sorted(lasts, key=site_key)
        assert {(n % 2, m % 2) for n, m in lasts} == {(0, 0), (0, 1), (1, 0), (1, 1)}

    def test_untwisted_nullity_is_one(self):
        rep = kernel_dimension("alpha1", 4)
        assert rep.nullity == 1
        assert rep.basis[0] == d(0, 0)

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            kernel_dimension("twisted_alpha1", 2)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            kernel_dimension("alpha3", 4)

    def test_deterministic(self):
        a = kernel_dimension("twisted_alpha1", 3).to_json()
        b = kernel_dimension("twisted_alpha1", 3).to_json()
        assert a == b


class TestCoboundarySolve:
    def test_untwisted_anchor_witness(self):
        target = d(0, 2, ONE - LAMBDA)
        rep = coboundary_solve(target, "alpha2", 4)
        assert rep.status == "solved"
        assert rep.witness.first == d(0, 1)
        assert rep.witness.second.is_zero()
        assert rep.residual.is_zero()

    def test_twisted_anchor_combinations(self):
        for target in (d(0, 0) - d(0, 2, LAMBDA), d(2, 0) - d(0, 0, LAMBDA)):
            rep = coboundary_solve(target, "twisted_alpha2", 4)
            assert rep.status == "solved"
            assert twisted_alpha2(rep.witness) == target

    def test_zero_target(self):
        rep = coboundary_solve(ZF, "alpha2", 4)
        assert rep.status == "solved"
        assert rep.witness.is_zero()

    def _check_certificate(self, rep, target, operator, window):
        # dual route: the combination must kill every windowed unit vector
        # while pairing nonzero against the target
        op = OPERATORS[operator]
        combo = dict(rep.certificate)
        for slot in range(op.stencil.in_slots):
            for n in range(-window, window + 1):
                for m in range(-window, window + 1):
                    unit = [ZF] * op.stencil.in_slots
                    unit[slot] = d(n, m)
                    image = cochain_slots(op.apply(cochain_from_slots(unit)))
                    total = ZERO
                    for (eq_slot, site), mult in combo.items():
                        total = total + mult * image[eq_slot].coeff(*site)
                    assert total == ZERO
        goal = cochain_slots(target)
        against = ZERO
        for (eq_slot, site), mult in combo.items():
            against = against + mult * goal[eq_slot].coeff(*site)
        assert against != ZERO

    def test_untwisted_generator_unsolvable(self):
        # (lambda^n - lambda) and (lambda^m - lambda) vanish together only at
        # (1,1), so that delta is the one untwisted site outside the image
        target = d(1, 1)
        for window in (4, 5):
            rep = coboundary_solve(target, "alpha2", window)
            assert rep.status == "unsolvable"
            assert rep.witness is None
            self._check_certificate(rep, target, "alpha2", window)

    def test_untwisted_dual_named_site_is_exact(self):
        # the same generator written against dual indexing lands at (-1,-1);
        # as a coefficient delta that site is honestly exact
        target = d(-1, -1)
        hand = CochainPair(d(-1, -2, ONE / (lambda_pow(-1) - LAMBDA)), ZF)
        assert alpha2(hand) == target
        for window in (4, 5, 6):
            rep = coboundary_solve(target, "alpha2", window)
            assert rep.status == "solved"
            assert alpha2(rep.witness) == target

    def test_twisted_generators_unsolvable(self):
        for site in ((0, 0), (1, 0), (0, 1), (1, 1)):
            rep = coboundary_solve(d(*site), "twisted_alpha2", 4)
            assert rep.status == "unsolvable"
            self._check_certificate(rep, d(*site), "twisted_alpha2", 4)

    def test_refuted_probe_certificates_at_radii_4_to_6(self):
        probes = [("twisted_alpha2", site) for site in ((0, 0), (1, 0), (0, 1), (1, 1))]
        probes.append(("alpha2", (1, 1)))
        for operator, site in probes:
            for window in (4, 5, 6):
                rep = coboundary_solve(d(*site), operator, window)
                assert rep.status == "unsolvable"
                self._check_certificate(rep, d(*site), operator, window)

    def test_scalar_products_stay_few(self, monkeypatch):
        # the 49-equation block of a radius-6 refutation, certificate
        # re-check included; Gauss-Jordan with multipliers made 1,729 here
        products = 0
        mul = Scalar.__mul__

        def counting(self, other):
            nonlocal products
            products += 1
            return mul(self, other)

        monkeypatch.setattr(Scalar, "__mul__", counting)
        rep = coboundary_solve(d(0, 0), "twisted_alpha2", 6)
        assert rep.status == "unsolvable"
        assert 0 < products < 1_000

    def test_no_torus_products(self, monkeypatch):
        # systems are read off the stencil tables and witnesses re-checked
        # through them; no step multiplies series
        products = 0
        mul = TorusElement.__mul__

        def counting(self, other):
            nonlocal products
            products += 1
            return mul(self, other)

        monkeypatch.setattr(TorusElement, "__mul__", counting)
        assert kernel_dimension("twisted_alpha1", 4).nullity == 4
        assert kernel_dimension("alpha1", 4).nullity == 1
        assert coboundary_solve(d(0, 0), "twisted_alpha2", 5).status == "unsolvable"
        assert coboundary_solve(d(0, 2), "alpha2", 5).status == "solved"
        pair = twisted_alpha1(random_functional(random.Random(3), radius=8, size=8))
        assert h1_trivialize(pair, 10).residual.is_zero()
        assert products == 0

    def test_margin_enforced(self):
        with pytest.raises(ValueError):
            coboundary_solve(d(3, 3), "twisted_alpha2", 4)

    def test_deterministic(self):
        a = coboundary_solve(d(0, 0), "twisted_alpha2", 4).to_json()
        b = coboundary_solve(d(0, 0), "twisted_alpha2", 4).to_json()
        assert a == b

    def test_type_mismatch(self):
        with pytest.raises(TypeError):
            coboundary_solve(CochainPair.zero(), "twisted_alpha2", 4)

    def test_rule_backed_target_is_rejected(self):
        with pytest.raises(TypeError, match="needs a LatticeFunctional target"):
            coboundary_solve(d00_rule, "twisted_alpha2", 4)

    def test_rule_backed_pair_target_is_rejected(self):
        with pytest.raises(TypeError, match="needs a CochainPair target"):
            coboundary_solve(CochainPair(d00_rule, ZF), "alpha1", 4)

    def test_wrong_type_target_is_rejected(self):
        for target, operator in (
            (SERIES, "twisted_alpha2"),
            (SERIES, "alpha1"),
            (d(0, 0), "twisted_alpha1"),
            (CochainPair(SERIES, ZF), "alpha1"),
            (CochainPair(ZF, SERIES), "twisted_alpha1"),
        ):
            with pytest.raises(TypeError, match="target"):
                coboundary_solve(target, operator, 4)

    def test_never_sets_up_the_whole_window(self, monkeypatch):
        # a membership system is read off the table around the target alone
        def whole_window(*args, **kwargs):
            raise AssertionError("whole-window set-up")

        monkeypatch.setattr(solver, "_equations", whole_window)
        monkeypatch.setattr(solver, "_variables", whole_window)
        statuses = set()
        for name, target in [
            ("twisted_alpha2", d(0, 0)),
            ("twisted_alpha2", d(0, 0) - d(0, 2, LAMBDA)),
            ("alpha2", d(1, 1)),
            ("alpha2", d(0, 2)),
            ("twisted_alpha1", CochainPair(d(0, 0), ZF)),
            ("twisted_alpha1", twisted_alpha1(d(1, 0))),
            ("alpha1", CochainPair(ZF, d(1, 1))),
            ("alpha1", alpha1(d(1, 1))),
        ]:
            statuses.add(coboundary_solve(target, name, 6).status)
        assert statuses == {"solved", "unsolvable"}


def _minus(x, f, y):
    """x - f * y for sparse dicts, exact zeros pruned."""
    out = dict(x)
    for k, c in y.items():
        nv = out.get(k, ZERO) - f * c
        if nv:
            out[k] = nv
        else:
            out.pop(k, None)
    return out


def first_row_gauss_jordan(rows, var_order, track=True):
    """Reference Gauss-Jordan, the oracle of the gain-graph solver: each
    variable in var_order pivots on the first unused row holding it.  rows
    are (coeffs, rhs) pairs.  Works on copies; returns (var -> pivot row,
    rows) with rows as (coeffs, rhs, multipliers) triples, the multipliers
    {row index: c} being the combination of original rows each row is.
    With track=False the multipliers are left empty, which is faster when
    no certificate is needed."""
    rows = [(dict(c), b, {i: ONE} if track else {}) for i, (c, b) in enumerate(rows)]
    pivots, used = {}, set()
    for v in var_order:
        at = next((i for i, (c, _, _) in enumerate(rows) if i not in used and c.get(v)), None)
        if at is None:
            continue
        coeffs, rhs, combo = rows[at]
        inv = ONE / coeffs[v]
        coeffs = {k: inv * c for k, c in coeffs.items()}
        rhs = inv * rhs
        combo = {k: inv * c for k, c in combo.items()}
        rows[at] = (coeffs, rhs, combo)
        for i, (c, b, mult) in enumerate(rows):
            f = c.get(v)
            if i == at or not f:
                continue
            rows[i] = (_minus(c, f, coeffs), b - f * rhs, _minus(mult, f, combo))
        pivots[v] = at
        used.add(at)
    return pivots, rows


def window_variables(op, window):
    """Every variable of the window, in pivot order: site by (|n|+|m|, n, m),
    then slot."""
    span = range(-window, window + 1)
    keys = [(slot, (n, m)) for slot in range(op.stencil.in_slots) for n in span for m in span]
    return sorted(keys, key=lambda v: (site_key(v[1]), v[0]))


def window_system(op, window, target=None, full_stencil=False):
    """Reference whole-window system: every equation (slot, site) whose table
    entries read all (full_stencil) or any of their input sites inside the
    window, in index order (slot, then site order), and one (coeffs, rhs)
    row per equation with the nonzero table coefficients of the window's
    variables and the target's right side.  Returns (eqs, rows)."""
    entries = op.stencil.entries
    keep = all if full_stencil else any

    def inside(n, m):
        return abs(n) <= window and abs(m) <= window

    span = range(-window - 2, window + 3)
    eqs = sorted(
        (
            (slot, (n, m))
            for slot in range(op.stencil.out_slots)
            for n in span
            for m in span
            if keep(inside(n + dn, m + dm) for o, _, dn, dm, _ in entries if o == slot)
        ),
        key=lambda e: (e[0], site_key(e[1])),
    )
    goal = None if target is None else cochain_slots(target)
    rows = []
    for slot, (n, m) in eqs:
        coeffs = {}
        for o, in_slot, dn, dm, terms in entries:
            # the entry's terms summed with plain lambda_pow products, not
            # through the engine's shifts
            c = sum((sign * lambda_pow(p * n + q * m + r) for sign, p, q, r in terms), ZERO)
            if o == slot and inside(n + dn, m + dm) and c:
                coeffs[(in_slot, (n + dn, m + dm))] = c
        rows.append((coeffs, ZERO if goal is None else goal[slot].coeff(n, m)))
    return eqs, rows


def _engine_pivots(op, window, full_stencil=False):
    """The pivot columns the gain-graph solver picks on the whole window
    system: the variables its frame keeps on the column side; on the row side
    every variable but the last of each balanced component."""
    eqs, rows = window_system(op, window, full_stencil=full_stencil)
    variables = window_variables(op, window)
    column_side = solver._column_side(op)
    _, edges = solver._graph(column_side, {eq: c for eq, (c, _) in zip(eqs, rows)}, variables)
    frame = solver._Frame()
    kept = {key for key, ends in edges.items() if frame.add(ends)}
    if column_side:
        return kept
    last = {}
    for v in variables:
        root = frame.find(v)
        if root not in frame.full:
            last[root] = v
    return set(variables) - set(last.values())


def _witness(op, pivots, rows):
    """Free variables 0, every pivot variable its row's right side."""
    parts = [{} for _ in range(op.stencil.in_slots)]
    for (slot, site), i in pivots.items():
        if rows[i][1]:
            parts[slot][site] = rows[i][1]
    return cochain_from_slots([LatticeFunctional(p) for p in parts])


class TestPivotRuleOracle:
    """The gain-graph solver must reproduce Gauss-Jordan byte for byte: its
    greedy basis is the set of pivot columns, and its kernel bases and
    witnesses are those of the reduced echelon form."""

    def test_kernel_bases_match_first_row_rule(self):
        for name in ("twisted_alpha1", "alpha1"):
            op = OPERATORS[name]
            for window in (3, 4, 5, 6):
                var_order = window_variables(op, window)
                assert solver._variables(op, window) == var_order
                eqs, rows = window_system(op, window, full_stencil=True)
                assert solver._equations(op, window) == eqs
                pivots, rows = first_row_gauss_jordan(rows, var_order)
                assert set(pivots) == _engine_pivots(op, window, full_stencil=True)
                basis = []
                for fv in (v for v in var_order if v not in pivots):
                    vec = {fv[1]: ONE}
                    for pv, i in pivots.items():
                        c = rows[i][0].get(fv)
                        if c:
                            vec[pv[1]] = -c
                    basis.append(LatticeFunctional(vec))
                rep = kernel_dimension(name, window)
                assert list(rep.basis) == basis

    def test_solved_witnesses_match_first_row_rule(self):
        targets = [
            ("alpha2", d(0, 2), (4, 5, 6)),
            ("alpha2", d(2, 0), (4, 5, 6)),
            ("alpha2", d(-1, -1), (4, 5, 6)),
            ("twisted_alpha2", d(0, 0) - d(0, 2, LAMBDA), (4, 5, 6)),
            ("twisted_alpha2", d(2, 0) - d(0, 0, LAMBDA), (4, 5, 6)),
            ("alpha1", alpha1(d(1, 1) + d(-1, 0, MU)), (4, 5)),
            ("twisted_alpha1", twisted_alpha1(d(1, 0) - d(0, 1, MU)), (4, 5)),
        ]
        for name, target, windows in targets:
            op = OPERATORS[name]
            for window in windows:
                var_order = window_variables(op, window)
                _, rows = window_system(op, window, target)
                pivots, rows = first_row_gauss_jordan(rows, var_order, track=False)
                assert set(pivots) == _engine_pivots(op, window)
                assert not any(b for c, b, _ in rows if not c)
                rep = coboundary_solve(target, name, window)
                assert rep.status == "solved"
                assert rep.witness == _witness(op, pivots, rows)


def full_system_solve(target, name, window):
    """Reference membership solve: every imposed equation of the window is
    assembled and eliminated, whatever the target reaches; the certificate
    is the first inconsistent row's multipliers."""
    op = OPERATORS[name]
    eqs, rows = window_system(op, window, target)
    pivots, rows = first_row_gauss_jordan(rows, window_variables(op, window))
    bad = next((combo for c, b, combo in rows if not c and b), None)
    if bad is not None:
        certificate = sorted(
            ((eqs[i], c) for i, c in bad.items() if c),
            key=lambda kv: (kv[0][0], site_key(kv[0][1])),
        )
        return SolveReport(name, window, "unsolvable", certificate=tuple(certificate))
    witness = _witness(op, pivots, rows)
    return SolveReport(
        name, window, "solved", witness=witness, residual=op.apply(witness) - target
    )


class TestTargetBlock:
    """Membership solves eliminate only the equations connected to the
    target; the other blocks have a zero right side and cannot matter."""

    def test_outputs_match_full_system(self):
        rng = random.Random(11)
        statuses = set()
        for name in ("twisted_alpha2", "alpha2"):
            apply = OPERATORS[name].apply
            for window in (4, 5, 6):
                for _ in range(2):
                    src = CochainPair(
                        random_functional(rng, radius=window - 3),
                        random_functional(rng, radius=window - 3),
                    )
                    exact = apply(src)
                    spread = sum(
                        (d(i, j, mu_pow(rng.randint(-2, 2))) for i in (0, 1) for j in (0, 1)),
                        ZF,
                    )
                    for target in (exact, exact + spread, exact + d(1, 1), spread):
                        rep = coboundary_solve(target, name, window)
                        assert rep.to_json() == full_system_solve(target, name, window).to_json()
                        statuses.add((name, rep.status))
        assert statuses == {
            (name, status)
            for name in ("twisted_alpha2", "alpha2")
            for status in ("solved", "unsolvable")
        }

    def test_solves_only_the_target_block(self, monkeypatch):
        # the whole radius-6 systems have 221 (twisted) and 194 rows
        sizes = []
        target_block = solver._target_block

        def recording(*args):
            block = target_block(*args)
            sizes.append(len(block))
            return block

        monkeypatch.setattr(solver, "_target_block", recording)
        assert coboundary_solve(d(0, 0), "twisted_alpha2", 6).status == "unsolvable"
        assert coboundary_solve(d(1, 1), "alpha2", 6).status == "unsolvable"
        assert coboundary_solve(d(0, 2), "alpha2", 6).status == "solved"
        assert 0 < sizes[0] <= 60
        assert sizes[1:] == [1, 1]

    def test_zero_tests_read_the_terms(self):
        tables = [op.stencil for op in OPERATORS.values()] + [
            cochains.TWISTED_PULLBACK_DEG0, cochains.TWISTED_PULLBACK_DEG2,
            cochains.UNTWISTED_PULLBACK_DEG2, cochains.UNTWISTED_PULLBACK_DEG1,
        ]
        vanished = 0
        for table in tables:
            for *_, terms in table.entries:
                for n in range(-8, 9):
                    for m in range(-8, 9):
                        zero = not coefficient(terms, n, m)
                        assert solver._vanishes(terms, n, m) == zero, (terms, n, m)
                        vanished += zero
        # alpha1 at m = 0 and n = 0, alpha2 at n = 1 and m = 1
        assert vanished == 4 * 17


def first_inconsistent_circuit(rows):
    """Reference row-side certificate.  The rows (coeffs, rhs) are taken in
    order and each is reduced against the independent rows before it; the
    first that reduces to 0 = c with c != 0 gives its circuit, the
    combination {row index: multiplier} with multiplier 1 at itself."""
    basis = []
    for i, (coeffs, rhs) in enumerate(rows):
        combo = {i: ONE}
        # each kept row lacks the pivots of the rows kept before it
        for v, kc, krhs, kcombo in basis:
            f = coeffs.get(v)
            if f:
                coeffs, rhs, combo = _minus(coeffs, f, kc), rhs - f * krhs, _minus(combo, f, kcombo)
        if not coeffs:
            if rhs:
                return combo
            continue
        v = next(iter(coeffs))
        inv = ONE / coeffs[v]
        basis.append((
            v,
            {k: inv * c for k, c in coeffs.items()},
            inv * rhs,
            {k: inv * c for k, c in combo.items()},
        ))
    return None


def twisted_delta_block(site, window):
    """Sites of the twisted_alpha2 equations connected to the one at site.
    f[a, b] is read at (a, b - 1) and (a, b + 1), g[a, b] at (a - 1, b) and
    (a + 1, b), and no coefficient vanishes, so two equations two steps apart
    are connected when the variable between them lies in the window."""
    block, todo = {site}, [site]
    while todo:
        n, m = todo.pop()
        for dn, dm in ((0, 1), (0, -1), (1, 0), (-1, 0)):
            nxt = (n + 2 * dn, m + 2 * dm)
            if abs(n + dn) <= window and abs(m + dm) <= window and nxt not in block:
                block.add(nxt)
                todo.append(nxt)
    return block


class TestCertificateRules:
    """Certificates against oracles that do not run the engine."""

    def test_twisted_deltas_match_the_closed_form(self):
        # the f-columns give y(a, b+1) = lambda^(-a-1) y(a, b-1) and the
        # g-columns y(a+1, b) = lambda^(1-b) y(a-1, b); both hold for
        # y(n, m) = u^(n - m - nm), here normalized at the block's last site
        def phase(n, m):
            return n - m - n * m

        for site in ((0, 0), (1, 0), (0, 1), (1, 1)):
            for window in (4, 5, 6, 7):
                sites = sorted(twisted_delta_block(site, window), key=site_key)
                last = phase(*sites[-1])
                want = tuple(((0, s), mu_pow(phase(*s) - last)) for s in sites)
                rep = coboundary_solve(d(*site), "twisted_alpha2", window)
                assert rep.certificate == want

    def test_row_side_certificate_is_the_first_inconsistent_circuit(self):
        # twisted_alpha1 systems have two-term rows: the certificate is the
        # fundamental circuit of the first equation, in equation order, that
        # depends on the ones before it and is inconsistent with them,
        # normalized to 1 at that equation
        op = OPERATORS["twisted_alpha1"]
        targets = [
            CochainPair(d(0, 0), ZF),
            CochainPair(ZF, d(1, 1, MU)),
            twisted_alpha1(d(1, 0) - d(0, 1, LAMBDA)) + CochainPair(d(-1, 2), d(2, -1)),
        ]
        for target in targets:
            for window in (4, 5):
                eqs, rows = window_system(op, window, target)
                circuit = first_inconsistent_circuit(rows)
                rep = coboundary_solve(target, "twisted_alpha1", window)
                assert rep.status == "unsolvable"
                assert rep.certificate == tuple((eqs[i], c) for i, c in sorted(circuit.items()) if c)
                assert rep.certificate[-1][1] == ONE
                TestCoboundarySolve()._check_certificate(rep, target, "twisted_alpha1", window)


def S(k):
    return Scalar.from_int(k)


# u-exponents as integer polynomials in two lattice variables x and y:
# {(i, j): c} is the sum of c x**i y**j
def poly(*terms):
    """The sum of c x**i y**j over terms (c, i, j)."""
    out: dict = {}
    for c, i, j in terms:
        out[(i, j)] = out.get((i, j), 0) + c
    return {k: c for k, c in out.items() if c}


def padd(*ps):
    return poly(*((c, i, j) for p in ps for (i, j), c in p.items()))


def pmul(a, b):
    return poly(*((c * e, i + k, j + l) for (i, j), c in a.items() for (k, l), e in b.items()))


X, Y = poly((1, 1, 0)), poly((1, 0, 1))


def const(k):
    return poly((k, 0, 0))


def term_exponent(term, n, m):
    """The u-exponent 2(p n + q m + r) of a table term (sign, p, q, r) at
    the site (n, m), with n and m polynomials."""
    _, p, q, r = term
    return padd(pmul(const(2 * p), n), pmul(const(2 * q), m), const(2 * r))


def cancels(pair):
    """Do two (sign, exponent, dn, dm) monomials cancel on the whole lattice,
    their offsets staying in one parity class?"""
    (s1, e1, dn1, dm1), (s2, e2, dn2, dm2) = pair
    return s1 == -s2 and e1 == e2 and (dn1 - dn2) % 2 == 0 and (dm1 - dm2) % 2 == 0


def d_balances_rows(entries) -> bool:
    """Is D = u^(nm) (up to a constant on each parity class) a potential of
    every equation edge of a degree-1 table?  In each out slot the two
    entries, at the equation site (n, m), carry exponents
    2(p n + q m + r) + (n + dn)(m + dm) that must cancel."""
    for slot in {e[0] for e in entries}:
        pair = []
        for _, _, dn, dm, terms in (e for e in entries if e[0] == slot):
            if len(terms) != 1:
                return False
            exponent = padd(term_exponent(terms[0], X, Y), pmul(padd(X, const(dn)), padd(Y, const(dm))))
            pair.append((terms[0][0], exponent, dn, dm))
        if len(pair) != 2 or not cancels(pair):
            return False
    return True


def y_balances_columns(entries) -> bool:
    """Is y = u^(n - m - nm) (up to a constant on each parity class) a
    potential of every variable edge of a degree-2 table?  The two entries
    reading an input slot, at the equation site (n, m) = (a - dn, b - dm),
    carry exponents 2(p n + q m + r) + n - m - n m, polynomials in (a, b),
    that must cancel."""
    for slot in {e[1] for e in entries}:
        pair = []
        for _, _, dn, dm, terms in (e for e in entries if e[1] == slot):
            if len(terms) != 1:
                return False
            n, m = padd(X, const(-dn)), padd(Y, const(-dm))
            exponent = padd(term_exponent(terms[0], n, m), n, pmul(const(-1), padd(m, pmul(n, m))))
            pair.append((terms[0][0], exponent, dn, dm))
        if len(pair) != 2 or not cancels(pair):
            return False
    return True


def composes_to_zero(outer, inner) -> bool:
    """Is outer after inner zero on the whole lattice?  Output slot o of the
    composite at (n, m) gains, for every entry (o, i, dn, dm) of outer and
    (i, j, dn', dm') of inner and every pair of their terms, the monomial of
    sign s s' and exponent 2(p n + q m + r) + 2(p' n' + q' m' + r') at
    n' = n + dn, m' = m + dm times input[j][n' + dn', m' + dm'].  Distinct
    exponent polynomials differ at some site, so the composite vanishes
    exactly when the signs sum to zero for each output and input slot,
    offset and exponent."""
    total: dict = {}
    for o, i, dn, dm, terms in outer:
        n, m = padd(X, const(dn)), padd(Y, const(dm))
        for i2, j, dn2, dm2, terms2 in inner:
            if i2 != i:
                continue
            for t in terms:
                for t2 in terms2:
                    exponent = padd(term_exponent(t, X, Y), term_exponent(t2, n, m))
                    key = (o, j, dn + dn2, dm + dm2, frozenset(exponent.items()))
                    total[key] = total.get(key, 0) + t[0] * t2[0]
    return not any(total.values())


def single_term_mutations(entries):
    """Every table made from entries by one change to one term of one entry:
    its sign flipped, or p, q or r moved by 1 either way."""
    for k, (o, i, dn, dm, terms) in enumerate(entries):
        for t, (sign, *pqr) in enumerate(terms):
            changed = [(-sign, *pqr)]
            for at in range(3):
                for step in (1, -1):
                    moved = list(pqr)
                    moved[at] += step
                    changed.append((sign, *moved))
            for term in changed:
                new_terms = terms[:t] + (term,) + terms[t + 1 :]
                yield entries[:k] + ((o, i, dn, dm, new_terms),) + entries[k + 1 :]


class TestBalance:
    """Why the gain-graph solver never meets an unbalanced cycle, checked on
    the table data alone, on the whole lattice: the twisted tables carry a
    nowhere-zero potential, and the untwisted ones make no cycle."""

    def test_d_balances_every_twisted_alpha1_equation(self):
        assert d_balances_rows(cochains.TWISTED_ALPHA1.entries)

    def test_y_balances_every_twisted_alpha2_variable(self):
        assert y_balances_columns(cochains.TWISTED_ALPHA2.entries)

    def test_untwisted_tables_make_no_cycle(self):
        # an alpha1 equation holds one variable, so its graph is a matching
        alpha1_entries = cochains.ALPHA1.entries
        assert sorted(e[0] for e in alpha1_entries) == list(range(cochains.ALPHA1.out_slots))
        # an alpha2 variable is read by one entry, so its edges are half-edges
        alpha2_entries = cochains.ALPHA2.entries
        assert sorted(e[1] for e in alpha2_entries) == list(range(cochains.ALPHA2.in_slots))

    def test_orientation(self):
        sides = {name: solver._column_side(op) for name, op in OPERATORS.items()}
        assert sides == {
            "twisted_alpha1": False,
            "twisted_alpha2": True,
            "alpha1": True,
            "alpha2": True,
        }

    def test_every_single_term_mutation_fails(self):
        mutants = 0
        for table, balances in (
            (cochains.TWISTED_ALPHA1, d_balances_rows),
            (cochains.TWISTED_ALPHA2, y_balances_columns),
        ):
            for entries in single_term_mutations(table.entries):
                assert not balances(entries), entries
                mutants += 1
        assert mutants == 56


class TestSquareZero:
    """d2 after d1 is zero on the whole lattice, for both complexes, checked
    on the table data alone as integer exponent polynomials in (n, m), with
    no window and no Scalar.  h1_trivialize leans on it: twisted_alpha2 of
    the input equals twisted_alpha2 of the input less a finite coboundary."""

    COMPLEXES = (
        (cochains.TWISTED_ALPHA2, cochains.TWISTED_ALPHA1),
        (cochains.ALPHA2, cochains.ALPHA1),
    )

    def test_both_complexes_square_to_zero(self):
        for outer, inner in self.COMPLEXES:
            assert composes_to_zero(outer.entries, inner.entries)

    def test_every_single_term_mutation_fails(self):
        mutants = 0
        for outer, inner in self.COMPLEXES:
            for entries in single_term_mutations(outer.entries):
                assert not composes_to_zero(entries, inner.entries), entries
                mutants += 1
            for entries in single_term_mutations(inner.entries):
                assert not composes_to_zero(outer.entries, entries), entries
                mutants += 1
        assert mutants == 112


def g(*pairs):
    """A gain from its (sign, k) pairs: the sum of sign * u**k."""
    return tuple(pairs)


UNIT, MINUS = g((1, 0)), g((-1, 0))


def gain_value(gain):
    """A gain's value, summed with plain mu_pow products."""
    return sum((sign * mu_pow(k) for sign, k in gain), ZERO)


def triangle(closing):
    """Edges a-b, b-c and c-a with unit gains but closing on a; the cycle
    is balanced exactly when closing is -1."""
    return {
        "ab": (("a", UNIT), ("b", UNIT)),
        "bc": (("b", UNIT), ("c", UNIT)),
        "ca": (("c", UNIT), ("a", closing)),
    }


def monomial_triangle(closing):
    """a-b, b-c and c-a with monomial gains, balanced exactly when closing
    is u^-3: p[a] u - p[b] u^3 = 0 and p[b] + p[c] u^2 = 0 give
    p = (-u^4, -u^2, 1) at (a, b, c), and then p[c] u + p[a] u^-3 = 0."""
    return {
        "ab": (("a", g((1, 1))), ("b", g((-1, 3)))),
        "bc": (("b", UNIT), ("c", g((1, 2)))),
        "ca": (("c", g((1, 1))), ("a", closing)),
    }


def tree_with_half_edge():
    """The path a-b-c-d and a half-edge at b, which fixes every value; the
    gains at d and b are binomials."""
    return {
        "ab": (("a", UNIT), ("b", g((1, 2)))),
        "bc": (("b", g((1, 1))), ("c", UNIT)),
        "cd": (("c", MINUS), ("d", g((1, 0), (1, 2)))),
        "b": (("b", g((1, 1), (-1, 3))),),
    }


def edge_sums(edges, x):
    """sum_e x[e] A_e, node by node."""
    out = {}
    for key, ends in edges.items():
        for node, c in ends:
            out[node] = out.get(node, ZERO) + gain_value(c) * x.get(key, ZERO)
    return {node: v for node, v in out.items() if v}


def kept_by(frame, edges):
    return {key: ends for key, ends in edges.items() if frame.add(ends)}


class TestGainGraph:
    """The frame-matroid pieces on small hand-made gain graphs: balanced
    cycles, half-edges and the refused unbalanced cycle."""

    def test_frame_keeps_the_greedy_basis(self):
        frame = solver._Frame()
        edges = triangle(MINUS)
        assert [frame.add(ends) for ends in edges.values()] == [True, True, False]
        kept = {key: edges[key] for key in ("ab", "bc")}
        closing = [edges["ca"]]
        assert solver._Forest(kept, "abc").potentials(closing) == [{"c": ONE, "b": -ONE, "a": ONE}]
        # a half-edge makes the component full: it takes no second half-edge
        # and no edge to another full one, and it has no potential left
        assert frame.add((("b", g((1, 3))),))
        assert frame.full == {frame.find("a")}
        kept["b"] = (("b", g((1, 3))),)
        assert solver._Forest(kept, "abc").potentials(closing) == []
        assert not frame.add((("a", g((1, 2))),))
        assert frame.add((("d", UNIT),))
        assert not frame.add((("a", UNIT), ("d", UNIT)))
        assert frame.add((("d", UNIT), ("e", g((-1, 5)))))
        assert {frame.find(x) for x in "abcde"} == frame.full and len(frame.full) == 2

    def test_walk_gives_balanced_potentials(self):
        edges = monomial_triangle(g((1, -3)))
        frame = solver._Frame()
        kept = kept_by(frame, edges)
        assert list(kept) == ["ab", "bc"]
        # one tree per balanced component, from the last node backwards
        forest = solver._Forest(dict(kept, z=(("z", UNIT), ("y", UNIT))), "abcyz")
        potentials = forest.potentials([edges["ca"]])
        assert potentials == [
            {"z": ONE, "y": -ONE},
            {"c": ONE, "b": -mu_pow(2), "a": -mu_pow(4)},
        ]
        for p in potentials:
            for ends in edges.values():
                if all(node in p for node, _ in ends):
                    assert sum((p[node] * gain_value(c) for node, c in ends), ZERO) == ZERO

    def test_frame_refuses_an_unbalanced_cycle(self):
        # the frame keeps no edge that closes a cycle; the walk of the
        # potentials checks it and refuses an unbalanced one
        for edges in (
            triangle(UNIT), triangle(g((-1, 2))), triangle(g((-1, 0), (1, 2))),
            monomial_triangle(g((-1, -3))), monomial_triangle(g((1, -1))),
        ):
            frame = solver._Frame()
            kept = kept_by(frame, edges)
            assert list(kept) == ["ab", "bc"]
            with pytest.raises(RuntimeError, match="unbalanced cycle"):
                solver._Forest(kept, "abc").potentials([edges["ca"]])
        # the same closing edges in a component that a half-edge made full
        # are not checked: its values are 0
        edges = triangle(UNIT)
        frame = solver._Frame()
        kept = kept_by(frame, dict(edges, a=(("a", UNIT),)))
        assert list(kept) == ["ab", "bc", "a"]
        assert solver._Forest(kept, "abc").potentials([edges["ca"]]) == []

    def test_peeling_takes_a_tree_with_a_half_edge(self):
        edges = tree_with_half_edge()
        frame = solver._Frame()
        assert all(frame.add(ends) for ends in edges.values())
        forest = solver._Forest(edges, "abcd")
        assert len(forest.steps) == len(edges)
        rhs = {"a": ONE, "b": S(2), "c": MU, "d": S(-4)}
        assert edge_sums(edges, forest.edge_values(rhs)) == rhs
        assert forest.edge_values({}) == {}

    def test_forest_values_solve_an_unbalanced_component(self):
        # row side: nodes are variables and each kept edge one equation
        # a x[u] + b x[v] = rhs[edge]; the half-edge fixes its tree, and the
        # balanced e-f sets its last node f to 0
        edges = dict(tree_with_half_edge(), ef=(("e", UNIT), ("f", g((1, 2)))))
        frame = solver._Frame()
        kept = kept_by(frame, edges)
        assert kept == edges
        rhs = {"ab": S(3), "bc": MU, "cd": S(-1), "b": HALF, "ef": S(4)}
        forest = solver._Forest(kept, ["a", "b", "c", "d", "e", "f"])
        first = forest.roots[0][1]
        trees = [forest.steps[:first], forest.steps[first:]]
        assert [sorted(v for _, v, _, _ in t) for t in trees] == [["a", "b", "c", "d"], ["e"]]
        x = forest.node_values(rhs, ZERO)
        for key, ends in kept.items():
            assert sum((gain_value(c) * x.get(v, ZERO) for v, c in ends), ZERO) == rhs[key]
        assert "f" not in x and x["e"] == S(4)
        # the half-edge u - u^3 fixes b
        assert x["b"] == HALF / (MU - mu_pow(3))
        # balanced: the last node is the free one, set to 0
        edges = triangle(MINUS)
        frame = solver._Frame()
        kept = kept_by(frame, edges)
        x = solver._Forest(kept, ["a", "b", "c"]).node_values({"ab": S(3), "bc": MU}, ZERO)
        assert x == {"b": MU, "a": S(3) - MU}


def random_gain(rng):
    """A monomial gain, or a binomial one whose two powers differ."""
    k = rng.randint(-3, 3)
    if rng.random() < 0.5:
        return g((rng.choice((1, -1)), k))
    return g((1, k), (rng.choice((1, -1)), k + rng.randint(1, 3)))


def random_kept(rng, nodes):
    """The greedy basis of a random gain graph on nodes: a forest whose
    trees hold at most one half-edge each, half-edges offered or not."""
    halves = rng.random() < 0.5
    edges = {}
    for i in range(rng.randint(0, 2 * len(nodes))):
        u, v = rng.sample(nodes, 2)
        if halves and rng.random() < 0.2:
            edges[f"e{i}"] = ((u, random_gain(rng)),)
        else:
            edges[f"e{i}"] = ((u, random_gain(rng)), (v, random_gain(rng)))
    frame = solver._Frame()
    return frame, {key: ends for key, ends in edges.items() if frame.add(ends)}


def random_value(rng):
    return mu_pow(rng.randint(-3, 3)) * rng.choice((1, -1, 2, HALF))


class TestForestProperties:
    """On random forests, with and without half-edges and with monomial and
    binomial gains, the walk's node and edge values solve their systems and
    its roots are the last nodes of the balanced trees."""

    def test_random_forests(self):
        rng = random.Random(71)
        for _ in range(150):
            nodes = list("abcdefghij"[: rng.randint(2, 10)])
            rng.shuffle(nodes)
            frame, kept = random_kept(rng, nodes)
            forest = solver._Forest(kept, nodes)
            assert len(forest.steps) == len(kept)
            # each balanced tree's root is its last node, roots taken from
            # the end of the node list backwards
            last = {}
            for v in nodes:
                root = frame.find(v)
                if root not in frame.full:
                    last[root] = v
            roots = [r for r, _ in forest.roots]
            assert roots == sorted(last.values(), key=nodes.index, reverse=True)
            # node values: every kept edge holds, every root at its seed
            rhs = {key: random_value(rng) for key in kept if rng.random() < 0.7}
            for seed in (ZERO, ONE, random_value(rng)):
                x = forest.node_values(rhs, seed)
                assert all(x.values())
                for key, ends in kept.items():
                    left = sum((gain_value(c) * x.get(v, ZERO) for v, c in ends), ZERO)
                    assert left == rhs.get(key, ZERO)
                assert all(x.get(r, ZERO) == seed for r in roots)
            # edge values: the right side at every node but the roots
            rhs = {v: random_value(rng) for v in nodes if rng.random() < 0.7}
            x = forest.edge_values(rhs)
            assert set(x) <= set(kept) and all(x.values())
            sums = edge_sums(kept, x)
            for v in nodes:
                if v not in roots:
                    assert sums.get(v, ZERO) == rhs.get(v, ZERO)


class TestMonomialGains:
    """Every coefficient is held as its gain: one (sign, k) pair for each
    twisted entry, so a twisted solve only shifts powers of u."""

    def test_gains_equal_coefficients(self):
        tables = [op.stencil for op in OPERATORS.values()] + [
            cochains.TWISTED_PULLBACK_DEG0, cochains.TWISTED_PULLBACK_DEG2,
            cochains.UNTWISTED_PULLBACK_DEG2, cochains.UNTWISTED_PULLBACK_DEG1,
        ]
        x = Scalar.parse("(1 + u)/(2 - u^2)")
        entries = 0
        for table in tables:
            for *_, terms in table.entries:
                entries += 1
                for n in range(-8, 9):
                    for m in range(-8, 9):
                        gain = solver._gain(terms, n, m)
                        c = coefficient(terms, n, m)
                        assert len(gain) == len(terms)
                        assert gain_value(gain) == c, (terms, n, m)
                        assert solver._mul(x, gain) == x * c
                        assert solver._mul(x, gain, -1) == -(x * c)
                        if c:
                            assert solver._div(x, gain) == x / c
        assert entries == 17

    def test_twisted_solves_divide_no_scalar(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("a twisted solve divided Scalars")

        monkeypatch.setattr(Scalar, "__truediv__", refuse)
        monkeypatch.setattr(Scalar, "inv", refuse)
        for window in range(3, 9):
            assert kernel_dimension("twisted_alpha1", window).nullity == 4
        for site in ((0, 0), (1, 0), (0, 1), (1, 1)):
            for radius in range(4, 8):
                assert coboundary_solve(d(*site), "twisted_alpha2", radius).status == "unsolvable"

    def test_twisted_solves_make_few_products(self, monkeypatch):
        # the weighted frame of the Scalar gains made 1,473 products, 285
        # divisions and 289 inverses on the kernel, and 431 products on the
        # refutation; what is left there is the certificate's right side
        calls = {"__mul__": 0, "__truediv__": 0, "inv": 0}

        def counting(name):
            original = getattr(Scalar, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        for name in calls:
            monkeypatch.setattr(Scalar, name, counting(name))
        assert kernel_dimension("twisted_alpha1", 8).nullity == 4
        assert calls == {"__mul__": 0, "__truediv__": 0, "inv": 0}
        assert coboundary_solve(d(0, 0), "twisted_alpha2", 6).status == "unsolvable"
        assert calls["__truediv__"] == calls["inv"] == 0
        assert calls["__mul__"] < 100

    def test_twisted_kernel_bases_are_the_closed_form(self):
        # on each parity class the kernel vector is u^(nm - NM), where (N, M)
        # is the class's last site in pivot order, and the vectors come in
        # the order of those sites
        def key(site):
            return (abs(site[0]) + abs(site[1]), site[0], site[1])

        for window in range(3, 9):
            span = range(-window, window + 1)
            want = []
            for i in (0, 1):
                for j in (0, 1):
                    sites = [(n, m) for n in span for m in span if (n - i) % 2 == 0 and (m - j) % 2 == 0]
                    N, M = max(sites, key=key)
                    vec = LatticeFunctional({(n, m): mu_pow(n * m - N * M) for n, m in sites})
                    want.append((key((N, M)), vec))
            want = [vec for _, vec in sorted(want, key=lambda kv: kv[0])]
            assert list(kernel_dimension("twisted_alpha1", window).basis) == want


# (solvable, refuted) membership targets of each degree-2 operator
MEMBERSHIP = {
    "twisted_alpha2": (d(0, 0) - d(0, 2, LAMBDA), d(0, 0)),
    "alpha2": (d(0, 2, ONE - LAMBDA), d(1, 1)),
}
# shrinking a permutation of ~200 variables takes minutes; a failing order
# is reported as drawn
no_shrink = settings(
    max_examples=15, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate]
)
permuted_orders = st.sampled_from(
    [(name, window) for name in MEMBERSHIP for window in (4, 5)]
).flatmap(
    lambda case: st.tuples(
        st.just(case), st.permutations(window_variables(OPERATORS[case[0]], case[1]))
    )
)


class TestOrderIndependence:
    """Properties of the reference Gauss-Jordan that hold for any variable
    order, so no choice of pivot order can trade correctness for speed."""

    @given(permuted_orders)
    @no_shrink
    def test_nullity_does_not_depend_on_order(self, drawn):
        (name, window), order = drawn
        _, rows = window_system(OPERATORS[name], window, full_stencil=True)
        pivots, _ = first_row_gauss_jordan(rows, list(order))
        assert len(order) - len(pivots) == kernel_dimension(name, window).nullity

    @given(permuted_orders)
    @no_shrink
    def test_witnesses_and_certificates_hold_for_any_order(self, drawn):
        (name, window), order = drawn
        op = OPERATORS[name]
        solvable, refuted = MEMBERSHIP[name]

        _, rows = window_system(op, window, solvable)
        pivots, rows = first_row_gauss_jordan(rows, list(order))
        assert not any(b for c, b, _ in rows if not c)
        assert op.apply(_witness(op, pivots, rows)) == solvable

        eqs, rows = window_system(op, window, refuted)
        _, rows = first_row_gauss_jordan(rows, list(order))
        bad = [combo for c, b, combo in rows if not c and b]
        assert bad
        _, original = window_system(op, window)
        for combo in bad:
            lhs = {}
            against = ZERO
            for i, mult in combo.items():
                for k, c in original[i][0].items():
                    lhs[k] = lhs.get(k, ZERO) + mult * c
                against = against + mult * refuted.coeff(*eqs[i][1])
            assert not any(lhs.values())
            assert against != ZERO


class TestLineEliminate:
    def test_zero_row(self):
        assert line_eliminate(ZF, 2, 5).is_zero()

    def test_delta_row_frozen_tail(self):
        # gamma[-1] = 0 below the delta, gamma[1] = 1, then
        # gamma[n+2] = lambda gamma[n] up to the window edge
        gamma = line_eliminate(d(0, 1), 1, 5)
        assert gamma == d(1, 1, 1) + d(3, 1, LAMBDA) + d(5, 1, lambda_pow(2))

    def test_row_reproduced_on_interior(self):
        rng = random.Random(7)
        window = 6
        for _ in range(20):
            s0 = rng.randint(-4, 4)
            row = LatticeFunctional(
                {(rng.randint(-3, 3), s0): mu_pow(rng.randint(-2, 2)) for _ in range(3)}
            )
            gamma = line_eliminate(row, s0, window)
            out = twisted_alpha1(gamma)
            # first component lives on the row and matches it inside
            for (n, m) in out.first.support():
                assert m == s0
            for n in range(-window + 1, window):
                assert out.first.coeff(n, s0) == row.coeff(n, s0)

    def test_rejects_off_row_support(self):
        with pytest.raises(ValueError):
            line_eliminate(d(0, 1), 2, 5)

    def test_rejects_row_outside_window(self):
        with pytest.raises(ValueError, match=r"\|y\| <= 4"):
            line_eliminate(d(0, 9), 9, 4)

    def test_rejects_rule_backed_row(self):
        with pytest.raises(TypeError, match="LatticeFunctional"):
            line_eliminate(d00_rule, 0, 4)

    def test_rejects_wrong_type_row(self):
        for row in (SERIES, CochainPair(d(0, 0), ZF)):
            with pytest.raises(TypeError, match="LatticeFunctional"):
                line_eliminate(row, 0, 4)


    def test_line_without_finite_preimage_tails_upwards(self):
        # h = c d(-2) + c' d(1) on y = s0: gamma[-1 + 2k] = lambda^(k s0) c and
        # gamma[2 + 2k] = lambda^(k s0) c', nothing below the lowest source
        # site; the odd chain is cut at n = window, the even one at window - 1
        window, s0 = 7, -2
        c, c2 = MU, Scalar.from_int(-3)
        row = d(-2, s0, c) + d(1, s0, c2)
        gamma = line_eliminate(row, s0, window)
        want = sum((d(-1 + 2 * k, s0, lambda_pow(k * s0) * c) for k in range(5)), ZF)
        want = want + sum((d(2 + 2 * k, s0, lambda_pow(k * s0) * c2) for k in range(3)), ZF)
        assert gamma == want
        sites = [n for n, _ in gamma.terms]
        assert min(sites) > -2 and max(sites) == window
        out = twisted_alpha1(gamma).first
        for n in range(-window + 1, window):
            assert out.coeff(n, s0) == row.coeff(n, s0)

    def test_source_at_the_low_window_edge_is_recovered(self):
        # phi at n = -window + 1 puts the lowest site of its first component
        # at n = -window, outside the interior; the walk starts there
        for window in (4, 7):
            s0 = window - 2
            phi = d(-window + 1, s0, MU) + d(-window + 3, s0, 2) + d(1, s0, -1)
            assert line_eliminate(twisted_alpha1(phi).first, s0, window) == phi


class TestRowSolve:
    def test_zero_row(self):
        assert row_solve(ZF, 1, "below", 4).is_zero()

    def test_periodic_constant_row_below(self):
        # at s0 = 1 the recurrence factor is 1, so 2-periodic rows qualify
        window = 4
        eta = LatticeFunctional(
            {(n, 1): (ONE if n % 2 == 0 else mu_pow(1)) for n in range(-window, window + 1)}
        )
        rho = row_solve(eta, 1, "below", window)
        assert {m for (_, m) in rho.support()} == {0, -2, -4}
        out = twisted_alpha1(rho)
        for n in range(-window, window + 1):
            assert out.second.coeff(n, 1) == eta.coeff(n, 1)
        for n in range(-window + 1, window):
            for m in range(-window + 1, window):
                if m != 1:
                    assert out.second.coeff(n, m) == ZERO
                assert out.first.coeff(n, m) == ZERO

    def test_geometric_row_above(self):
        # at s0 = -1 the factor is lambda^-2, satisfied by eta[n] = lambda^-n
        window = 4
        eta = LatticeFunctional(
            {(n, -1): lambda_pow(-n) for n in range(-window, window + 1)}
        )
        rho = row_solve(eta, -1, "above", window)
        assert {m for (_, m) in rho.support()} == {0, 2, 4}
        out = twisted_alpha1(rho)
        for n in range(-window, window + 1):
            assert out.second.coeff(n, -1) == eta.coeff(n, -1)

    def test_closed_form_at_every_row(self):
        # the recurrence of row_solve's docstring, evaluated with lambda_pow
        # products: -lambda^(-kn) eta[n] on row s0-1-2k below and
        # lambda^((k+1)n) eta[n] on row s0+1+2k above, rows |y| <= window;
        # s0 = -window below and s0 = window above sweep nothing
        rng = random.Random(73)
        for window in (3, 4, 6):
            for s0 in range(-window, window + 1):
                eta = recurrence_row(rng, s0, window)
                below, above = {}, {}
                for (n, _), c in eta.terms.items():
                    for k in range((s0 - 1 + window) // 2 + 1):
                        below[(n, s0 - 1 - 2 * k)] = -(lambda_pow(-k * n) * c)
                    for k in range((window - s0 - 1) // 2 + 1):
                        above[(n, s0 + 1 + 2 * k)] = lambda_pow((k + 1) * n) * c
                for direction, want in (("below", below), ("above", above)):
                    rho = row_solve(eta, s0, direction, window)
                    assert rho == LatticeFunctional(want)
                    assert all(abs(m) <= window for _, m in rho.terms)
                assert bool(below) == (s0 > -window) and bool(above) == (s0 < window)

    def test_recurrence_violation_site(self):
        with pytest.raises(RecurrenceViolation) as exc:
            row_solve(d(0, 2), 2, "below", 4)
        assert exc.value.site == (-1, 2)

    def test_bad_direction(self):
        with pytest.raises(ValueError):
            row_solve(ZF, 0, "sideways", 4)

    def test_rejects_row_outside_window(self):
        for direction in ("below", "above"):
            with pytest.raises(ValueError, match=r"\|y\| <= 4"):
                row_solve(d(0, -9), -9, direction, 4)

    def test_rejects_rule_backed_row(self):
        with pytest.raises(TypeError, match="LatticeFunctional"):
            row_solve(d00_rule, 0, "below", 4)

    def test_rejects_wrong_type_row(self):
        for row in (SERIES, CochainPair(d(0, 0), ZF)):
            with pytest.raises(TypeError, match="LatticeFunctional"):
                row_solve(row, 0, "above", 4)


class TestH1Trivialize:
    def test_zero_pair(self):
        rep = h1_trivialize(CochainPair.zero(), 4)
        assert rep.status == "solved"
        assert rep.witness.is_zero()

    def test_random_coboundaries(self):
        rng = random.Random(21)
        window = 6
        for _ in range(10):
            phi = random_functional(rng, radius=3, size=4)
            pair = twisted_alpha1(phi)
            rep = h1_trivialize(pair, window)
            assert rep.status == "solved"
            assert rep.residual.is_zero()
            out = twisted_alpha1(rep.witness)
            for n in range(-window + 1, window):
                for m in range(-window + 1, window):
                    assert out.first.coeff(n, m) == pair.first.coeff(n, m)
                    assert out.second.coeff(n, m) == pair.second.coeff(n, m)

    def test_pure_row_cocycle(self):
        # a second-component row of 2-periodic constants is a cocycle that
        # is not an obvious coboundary; the pipeline still trivializes it
        window = 5
        eta = LatticeFunctional(
            {(n, 1): (ONE if n % 2 == 0 else LAMBDA) for n in range(-window, window + 1)}
        )
        pair = CochainPair(ZF, eta)
        rep = h1_trivialize(pair, window)
        assert rep.status == "solved"

    def test_window_16_witness_round_trips_through_json(self):
        # the telescoping rows carry phases up to u^256; parse_scalar's
        # limits must leave every printed coefficient readable
        window = 16
        eta = LatticeFunctional(
            {(n, 1): (ONE if n % 2 == 0 else LAMBDA) for n in range(-window, window + 1)}
        )
        witness = h1_trivialize(CochainPair(ZF, eta), window).witness
        assert max(abs(c.s) for c in witness.terms.values()) >= 256
        assert LatticeFunctional.from_json(witness.to_json()) == witness

    def test_rejects_non_cocycle(self):
        with pytest.raises(NotACocycle) as exc:
            h1_trivialize(CochainPair(d(0, 1), ZF), 4)
        assert exc.value.site == (0, 0)

    def test_non_cocycle_site_is_the_first_interior_violation(self):
        # the expected site is read off the recurrences of the two second
        # differentials, scanned in (|n| + |m|, n, m) order
        def twisted_out(f, g, n, m):
            return (lambda_pow(-n) * f.coeff(n, m + 1) - LAMBDA * f.coeff(n, m - 1)
                    - LAMBDA * g.coeff(n + 1, m) + lambda_pow(m) * g.coeff(n - 1, m))

        def untwisted_out(f, g, n, m):
            return ((lambda_pow(n) - LAMBDA) * f.coeff(n, m - 1)
                    + (lambda_pow(m) - LAMBDA) * g.coeff(n - 1, m))

        def first_violation(out, pair, window):
            inner = range(-window + 1, window)
            sites = sorted(((n, m) for n in inner for m in inner),
                           key=lambda s: (abs(s[0]) + abs(s[1]), s[0], s[1]))
            return next((s for s in sites if out(pair.first, pair.second, *s)), None)

        rng = random.Random(29)
        refused = 0
        for window in (4, 6, 8):
            for _ in range(8):
                phi = random_functional(rng, radius=window - 2, size=5)
                bumped = []
                for cocycle in (twisted_alpha1(phi), alpha1(phi)):
                    halves = [dict(cocycle.first.terms), dict(cocycle.second.terms)]
                    for _ in range(rng.randint(2, 4)):
                        terms = rng.choice(halves)
                        site = (rng.randint(-window, window), rng.randint(-window, window))
                        terms[site] = terms.get(site, ZERO) + mu_pow(rng.randint(-2, 2))
                    bumped.append(CochainPair(*map(LatticeFunctional, halves)))
                twisted, untwisted = bumped
                want = first_violation(twisted_out, twisted, window)
                if want is None:
                    assert h1_trivialize(twisted, window).status == "solved"
                else:
                    with pytest.raises(NotACocycle) as exc:
                        h1_trivialize(twisted, window)
                    assert exc.value.site == want
                    refused += 1
                want = first_violation(untwisted_out, untwisted, window)
                assert kernel_check_untwisted_deg1(untwisted, window) == (want is None, want)
                refused += want is not None
        assert refused >= 40

        # bumps at the window's edge.  The interior equations read first on
        # the band |n| <= window-1, |m| <= window and second on |n| <= window,
        # |m| <= window-1: bumps on first at |m| = window and on second at
        # |n| = window are read there, bumps on first at |n| = window and on
        # second at |m| = window never are
        def bump(cocycle, sites):
            halves = [dict(cocycle.first.terms), dict(cocycle.second.terms)]
            for slot, site in sites:
                halves[slot][site] = halves[slot].get(site, ZERO) + mu_pow(rng.randint(-2, 2))
            return CochainPair(*map(LatticeFunctional, halves))

        rng = random.Random(31)
        refused = solved = 0
        for window in (4, 6, 8):
            for _ in range(8):
                cocycle = twisted_alpha1(random_functional(rng, radius=window - 2, size=5))

                def edge():
                    return rng.choice((window, -window)), rng.randint(-window + 1, window - 1)

                (e, i), (f, j), (g, k) = edge(), edge(), edge()
                read = [(0, (i, e)), (1, (f, j))]
                unread_first = [(0, (g, k)), (0, (-g, rng.randint(-window, window)))]
                for sites in (read[:1], read[1:], read + unread_first):
                    pair = bump(cocycle, sites)
                    want = first_violation(twisted_out, pair, window)
                    assert want is not None
                    with pytest.raises(NotACocycle) as exc:
                        h1_trivialize(pair, window)
                    assert exc.value.site == want
                    refused += 1
                pair = bump(cocycle, unread_first)
                assert first_violation(twisted_out, pair, window) is None
                assert h1_trivialize(pair, window).residual.is_zero()
                solved += 1
                # a term on the rows |m| = window fails their row recurrence,
                # which is checked although no interior equation reads it
                pair = bump(cocycle, [(1, (k, g))])
                assert first_violation(twisted_out, pair, window) is None
                with pytest.raises(RecurrenceViolation):
                    h1_trivialize(pair, window)
        assert (refused, solved) == (72, 24)

    def test_witness_is_the_finite_source(self):
        # a finitely supported phi is the one finite preimage of its image;
        # the last source of each window sits at the low edge n = -window + 1
        rng = random.Random(67)
        for window in (4, 6, 10, 16):
            sources = [random_functional(rng, radius=window - 1, size=6) for _ in range(8)]
            sources.append(d(-window + 1, 0, MU) + d(-window + 1, window - 1, -1) + d(1, -1, 3))
            for phi in sources:
                assert h1_trivialize(twisted_alpha1(phi), window).witness == phi

    def test_rejects_oversized_support(self):
        with pytest.raises(ValueError):
            h1_trivialize(CochainPair(d(9, 0), ZF), 4)

    def test_rejects_rule_backed_pair(self):
        for pair in (CochainPair(d00_rule, ZF), CochainPair(ZF, d00_rule)):
            with pytest.raises(TypeError, match="finite CochainPair"):
                h1_trivialize(pair, 4)

    def test_rejects_wrong_type_pair(self):
        for pair in (SERIES, CochainPair(SERIES, ZF), CochainPair(ZF, SERIES)):
            with pytest.raises(TypeError, match="finite CochainPair"):
                h1_trivialize(pair, 4)

    def test_rejects_bare_functional(self):
        with pytest.raises(TypeError, match="finite CochainPair"):
            h1_trivialize(d(0, 0), 4)


def stacked_h1(pair, window):
    """Reference trivialization with one closed-form telescoping stack per
    surviving second-component row: -lambda^(-(k-1)n) eta[n] on row s0-(2k-1)
    below (s0 >= 0) and lambda^(kn) eta[n] on row s0+(2k-1) above (s0 < 0),
    rows |y| <= window, all summed into one dict."""
    acc = {}
    rows = {}
    for (n, m), c in pair.first.terms.items():
        rows.setdefault(m, {})[(n, m)] = c
    for s0, terms in rows.items():
        acc.update(line_eliminate(LatticeFunctional(terms), s0, window).terms)
    leftover = (pair.second - twisted_alpha1(LatticeFunctional(acc)).second).restrict(window)
    for (n, s0), c in leftover.terms.items():
        if s0 >= 0:
            stack = [((n, s0 - (2 * k - 1)), -(lambda_pow(-(k - 1) * n) * c))
                     for k in range(1, (s0 + window + 1) // 2 + 1)]
        else:
            stack = [((n, s0 + (2 * k - 1)), lambda_pow(k * n) * c)
                     for k in range(1, (window - s0 + 1) // 2 + 1)]
        for site, v in stack:
            acc[site] = acc.get(site, ZERO) + v
    psi = LatticeFunctional(acc)
    out = twisted_alpha1(psi)
    residual = CochainPair(
        (out.first - pair.first).restrict(window - 1),
        (out.second - pair.second).restrict(window - 1),
    )
    return SolveReport("twisted_alpha1", window, "solved", witness=psi, residual=residual)


def recurrence_row(rng, s0, window):
    """A second-component row at y=s0 with eta[n+2] = lambda^(s0-1) eta[n]
    across the window: alone it is a twisted 1-cocycle."""
    eta = {}
    for start in (-window, -window + 1):
        c = mu_pow(rng.randint(-3, 3)) * rng.choice([1, -1, 2])
        for n in range(start, window + 1, 2):
            eta[(n, s0)] = c
            c = lambda_pow(s0 - 1) * c
    return LatticeFunctional(eta)


class TestH1Sweep:
    """h1_trivialize absorbs the surviving rows in one sweep per direction
    and parity chain; the per-row stacks it replaces are the oracle."""

    def test_gamma_is_applied_once(self, monkeypatch):
        # twisted_alpha1 of phase 1's gamma gives the leftover, the cocycle
        # check and, when no row survives, the re-check: one application per
        # finite coboundary; a surviving row adds the input's explicit
        # twisted_alpha2 and the witness's re-check
        rng = random.Random(61)
        coboundaries = [
            (twisted_alpha1(random_functional(rng, radius=w - 2, size=8)), w)
            for w in (6, 10, 16) for _ in range(4)
        ]
        rows = [(CochainPair(ZF, recurrence_row(rng, s0, w)), w) for s0, w in ((2, 6), (-3, 10))]
        calls = 0
        apply = cochains.Stencil.apply

        def counting(self, x):
            nonlocal calls
            calls += 1
            return apply(self, x)

        monkeypatch.setattr(cochains.Stencil, "apply", counting)
        for pair, window in coboundaries:
            assert h1_trivialize(pair, window).residual.is_zero()
        assert calls == len(coboundaries)
        calls = 0
        for pair, window in rows:
            assert h1_trivialize(pair, window).residual.is_zero()
        assert calls == 3 * len(rows)

    def test_matches_per_row_stacks_on_seeded_cocycles(self):
        rng = random.Random(41)
        for window in (6, 10, 16):
            for _ in range(6):
                pair = twisted_alpha1(random_functional(rng, radius=window - 2, size=6))
                rep = h1_trivialize(pair, window)
                assert rep.to_json() == stacked_h1(pair, window).to_json()

    def test_matches_per_row_stacks_on_row_cocycles(self):
        rng = random.Random(43)
        for window in (6, 10, 16):
            sides = (-window, -window + 1, -3, -2, -1, 0, 1, 2, 3, window - 1, window)
            pairs = [CochainPair(ZF, recurrence_row(rng, s0, window)) for s0 in sides]
            # rows -3..3 share parity chains on both sides; add a coboundary
            pairs.append(CochainPair(ZF, sum((p.second for p in pairs[2:9]), ZF)))
            pairs.append(pairs[-1] + twisted_alpha1(random_functional(rng, radius=window - 2)))
            for pair in pairs:
                rep = h1_trivialize(pair, window)
                assert rep.residual.is_zero()
                assert rep.to_json() == stacked_h1(pair, window).to_json()

    def test_scalar_products_stay_few(self, monkeypatch):
        # one stack per surviving row made 586 products here, and a
        # recurrence check that multiplied by absent entries 176; every
        # product left is by a power of lambda, so it is a shift
        calls = {"__mul__": 0, "shift": 0}

        def counting(name):
            original = getattr(Scalar, name)

            def wrapper(self, *args):
                calls[name] += 1
                return original(self, *args)

            return wrapper

        phi = LatticeFunctional({(3, 5): MU, (-2, 4): Scalar.from_int(2) / MU, (0, -7): ONE})
        pair = twisted_alpha1(phi)
        for name in calls:
            monkeypatch.setattr(Scalar, name, counting(name))
        rep = h1_trivialize(pair, 16)
        assert rep.residual.is_zero()
        assert calls["__mul__"] == 0
        assert 0 < calls["__mul__"] + calls["shift"] < 160


class TestLaurentFastPath:
    """An h1 pass is Laurent arithmetic over the denominator 1 on functionals
    the package built itself: it takes no canonical form and re-validates no
    site, and what it builds keeps the invariants the constructor checks."""

    def test_h1_takes_no_canonical_form_and_no_validation(self, monkeypatch):
        rng = random.Random(53)
        cases = []
        for window in (10, 16):
            pair = twisted_alpha1(random_functional(rng, radius=window - 2, size=8))
            cases.append((pair, window, stacked_h1(pair, window).to_json()))

        def refuse(*args, **kwargs):
            raise AssertionError("an h1 pass took a canonical form or validated a functional")

        monkeypatch.setattr(scalars, "_canonical", refuse)
        monkeypatch.setattr(LatticeFunctional, "__init__", refuse)
        reports = [h1_trivialize(pair, window) for pair, window, _ in cases]
        monkeypatch.undo()
        for rep, (_, _, want) in zip(reports, cases):
            assert rep.to_json() == want

    def test_h1_negates_few_numerators(self, monkeypatch):
        # a difference, and a stencil term of sign -1 added to a site that
        # already holds a value, negate no numerator; one negation per such
        # term and subtraction made 245 calls on this cocycle
        calls = 0
        pneg = scalars._pneg

        def counting(a):
            nonlocal calls
            calls += 1
            return pneg(a)

        two, three = Scalar.from_int(2), Scalar.from_int(3)
        phi = LatticeFunctional({
            (0, 3): MU, (1, -5): two, (-7, 0): ONE, (12, 9): ONE / MU,
            (-1, -12): -ONE, (5, 14): MU * MU, (0, -14): three, (9, 1): -two,
        })
        pair = twisted_alpha1(phi)
        monkeypatch.setattr(scalars, "_pneg", counting)
        monkeypatch.setattr(cochains, "_pneg", counting)
        rep = h1_trivialize(pair, 16)
        monkeypatch.undo()
        assert rep.witness == phi
        assert calls < 60

    def test_equal_power_monomials(self):
        # almost every h1 value is a monomial: two of one power of u add to
        # one monomial, or cancel to the canonical ZERO, for either sign
        cancelled = 0
        for s in (-5, 0, 3):
            for a in (1, -1, 2, -3):
                for b in (1, -1, 2, -2, 3):
                    x, y = Scalar(s, (a,)), Scalar(s, (b,))
                    for got, c in ((x + y, a + b), (x - y, a - b), (y - x, b - a)):
                        assert type(got) is Scalar
                        if c:
                            assert (got.s, got.n, got.d) == (s, (c,), (1,))
                            assert got == mu_pow(s) * c
                        else:
                            assert got is ZERO
                            cancelled += 1
        assert cancelled == 3 * (4 + 2 * 3)

    def test_built_functionals_stay_clean(self):
        rng = random.Random(59)
        window = 8
        for _ in range(10):
            s0 = rng.randint(-5, 5)
            row = random_functional(rng, radius=5, size=4)
            line = LatticeFunctional({(n, s0): c for (n, _), c in row.terms.items()})
            # the first component of a coboundary on the row: its carries cancel
            image = twisted_alpha1(line).first
            for h in (line, image, line.scale(HALF) + image):
                assert clean(line_eliminate(h, s0, window))
            for direction in ("below", "above"):
                assert clean(row_solve(recurrence_row(rng, s0, window), s0, direction, window))
            for w in (6, 10):
                rep = h1_trivialize(twisted_alpha1(random_functional(rng, radius=w - 2, size=6)), w)
                # the residual is empty, so it holds no zero either
                assert clean(rep.witness) and rep.residual.is_zero()
