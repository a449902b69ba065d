"""Windowed kernels, membership solves with certificates, degree-1 solver."""

from __future__ import annotations

import random

import pytest
from hypothesis import Phase, given, settings, strategies as st

from ncgeo.scalars import LAMBDA, MU, ONE, ZERO, Scalar, lambda_pow, mu_pow
from ncgeo.cochains import (
    CochainPair,
    LatticeFunctional,
    alpha1,
    alpha2,
    cochain_from_slots,
    cochain_slots,
    make_D,
    site_key,
    twisted_alpha1,
    twisted_alpha2,
)
from ncgeo import solver
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
        for o, in_slot, dn, dm, coeff in entries:
            if o == slot and inside(n + dn, m + dm) and coeff(n, m):
                coeffs[(in_slot, (n + dn, m + dm))] = coeff(n, m)
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
    return set(variables) - {g[-1][0] for g in frame.balanced(variables)}


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


def triangle(closing):
    """Edges a-b, b-c and c-a with unit coefficients but closing on a; the
    cycle is balanced exactly when closing is -1."""
    return {
        "ab": (("a", ONE), ("b", ONE)),
        "bc": (("b", ONE), ("c", ONE)),
        "ca": (("c", ONE), ("a", S(closing))),
    }


def edge_sums(edges, x):
    """sum_e x[e] A_e, node by node."""
    out = {}
    for key, ends in edges.items():
        for node, c in ends:
            out[node] = out.get(node, ZERO) + c * x.get(key, ZERO)
    return {node: v for node, v in out.items() if v}


class TestGainGraph:
    """The frame-matroid pieces on small hand-made gain graphs.  The windowed
    systems of the four operators never leave a cycle to peel (their cycles
    are all balanced), so the cycle pass is checked here."""

    def test_frame_keeps_the_greedy_basis(self):
        frame = solver._Frame()
        edges = triangle(-1)
        assert [frame.add(ends) for ends in edges.values()] == [True, True, False]
        assert frame.balanced("abc") == [[("a", ONE), ("b", -ONE), ("c", ONE)]]
        frame = solver._Frame()
        assert all(frame.add(ends) for ends in triangle(2).values())
        assert frame.balanced("abc") == []
        # a full component takes no half-edge and no edge to another full one
        assert not frame.add((("b", S(3)),))
        assert frame.add((("d", ONE),))
        assert not frame.add((("a", ONE), ("d", ONE)))
        assert frame.add((("d", ONE), ("e", S(5))))

    def test_peeling_goes_around_an_unbalanced_cycle(self):
        edges = dict(triangle(2), cd=(("c", S(2)), ("d", MU)))
        frame = solver._Frame()
        assert all(frame.add(ends) for ends in edges.values())
        peeling = solver._Peeling(edges)
        assert len(peeling.cycles) == 1 and len(peeling.steps) == 1
        rhs = {"a": ONE, "b": S(2), "c": MU, "d": S(-4)}
        assert edge_sums(edges, peeling.solve(rhs)) == rhs
        assert peeling.solve({}) == {}

    def test_forest_values_solve_an_unbalanced_component(self):
        # row side: nodes are variables and each kept edge one equation
        # a x[u] + b x[v] = rhs[edge]; an unbalanced triangle fixes every value
        edges = triangle(2)
        frame = solver._Frame()
        kept = {key: ends for key, ends in edges.items() if frame.add(ends)}
        rhs = {"ab": S(3), "bc": MU, "ca": S(-1)}
        x = solver._forest_values(frame, kept, rhs, ["a", "b", "c"])
        for key, ends in edges.items():
            assert sum((c * x.get(v, ZERO) for v, c in ends), ZERO) == rhs[key]
        # balanced: the last node is the free one, set to 0
        edges = triangle(-1)
        frame = solver._Frame()
        kept = {key: ends for key, ends in edges.items() if frame.add(ends)}
        x = solver._forest_values(frame, kept, {"ab": S(3), "bc": MU}, ["a", "b", "c"])
        assert "c" not in x and x == {"b": MU, "a": S(3) - MU}


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
        # seed -lambda^-s0 at (-1, s0), geometric tail to the window edge
        gamma = line_eliminate(d(0, 1), 1, 5)
        want = (
            d(-1, 1, -lambda_pow(-1))
            + d(-3, 1, -lambda_pow(-2))
            + d(-5, 1, -lambda_pow(-3))
        )
        assert gamma == want

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
        # recurrence check that multiplied by absent entries 176
        products = 0
        mul = Scalar.__mul__

        def counting(self, other):
            nonlocal products
            products += 1
            return mul(self, other)

        phi = LatticeFunctional({(3, 5): MU, (-2, 4): Scalar.from_int(2) / MU, (0, -7): ONE})
        pair = twisted_alpha1(phi)
        monkeypatch.setattr(Scalar, "__mul__", counting)
        rep = h1_trivialize(pair, 16)
        assert rep.residual.is_zero()
        assert 0 < products < 160
