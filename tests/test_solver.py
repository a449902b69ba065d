"""Windowed kernels, membership solves with certificates, degree-1 solver."""

from __future__ import annotations

import json
import random
from collections import Counter
from unittest import mock

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
    SolveReport,
    coboundary_solve,
    h1_trivialize,
    kernel_dimension,
)


def d(n, m, c=1):
    return LatticeFunctional.delta(n, m, c)


ZF = LatticeFunctional.zero()
# wrong types where a LatticeFunctional belongs: a series, a pair, and a
# coefficient rule (the closed form of D(0,0) as a bare function)
SERIES = TorusElement.monomial(0, 0)


def row_of(f):
    """A functional on one row as {n: c}, the form the line walks take."""
    return {n: c for (n, _), c in f.terms.items()}


def walk(row, s0, window):
    """Phase 1's line walk of a row at y=s0, as a functional on that row."""
    gamma = solver._line_walk(row_of(row), s0, window)
    return LatticeFunctional._of({(n, s0): c for n, c in gamma.items()})


def reference_walk(h, s0, window):
    """Phase 1's line walk one step at a time, the reference for the sweep:
    each parity chain from its lowest site n with gamma[n-1] = 0, carry =
    h[n] + lambda**s0 carry at every step up to n = window-1, stopping once
    past the chain's highest site with a zero carry."""
    gamma = {}
    for parity in (0, 1):
        chain = [n for n in h if n % 2 == parity]
        if not chain:
            continue
        n, hi = min(chain), max(chain)
        carry = ZERO
        while n <= window - 1 and (carry or n <= hi):
            carry = h.get(n, ZERO) + lambda_pow(s0) * carry
            if carry:
                gamma[n + 1] = carry
            n += 2
    return gamma


def d00_rule(n, m):
    return lambda_pow((n * m) // 2) if n % 2 == 0 and m % 2 == 0 else ZERO


def clean(f):
    """What LatticeFunctional._of leaves unchecked: int sites and nonzero
    Scalar values, here also in canonical form."""
    return all(
        type(n) is int and type(m) is int and type(c) is Scalar and c.n[0] and c.n[-1]
        for (n, m), c in f.terms.items()
    )


def block_starts(op, window, target):
    """The ids of the target's equations, where a membership walk starts."""
    parts = cochain_slots(target)
    keys = [(slot, s) for slot, part in enumerate(parts) for s in part.terms]
    return solver._ids(keys, window + op.stencil.reach, op.stencil.out_slots)


def block_equations(starts, edges):
    """The equations of a membership block: its starts and its edges' ends."""
    return set(starts) | {eq for ends in edges.values() for eq, _ in ends}


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

    def test_untwisted_degree1_classes_unsolvable(self):
        # the two untwisted degree-1 classes are not alpha1 coboundaries
        for target in (CochainPair(d(-1, 0), ZF), CochainPair(ZF, d(0, -1))):
            for window in range(4, 9):
                rep = coboundary_solve(target, "alpha1", window)
                assert rep.status == "unsolvable"
                self._check_certificate(rep, target, "alpha1", window)

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
            (CochainPair(SERIES, ZF), "alpha1"),
        ):
            with pytest.raises(TypeError, match="target"):
                coboundary_solve(target, operator, 4)

    def test_row_side_operator_is_refused(self, monkeypatch):
        # preimages under twisted_alpha1 are h1_trivialize's: the row side
        # is refused before any block is set up, whatever the target
        def no_block(*args):
            raise AssertionError("block set up")

        monkeypatch.setattr(solver, "_target_block", no_block)
        for target in (twisted_alpha1(d(1, 0)), CochainPair(d(0, 0), ZF), d(0, 0), SERIES):
            for window in (4, 6):
                with pytest.raises(ValueError, match="h1_trivialize"):
                    coboundary_solve(target, "twisted_alpha1", window)

    def test_never_sets_up_the_whole_window(self, monkeypatch):
        # a membership system is read off the table around the target alone:
        # no plan of a kernel's full-stencil equations is made, and the only
        # ids ever keyed for sorting are, for a refutation, its certificate's
        # equations, and its root once more to pick the reported component,
        # and, for a witness, its block's variables: a refutation keys no
        # variable and a witness no equation
        keyed = {True: [], False: []}
        blocks = []
        order_key, target_block, plan = solver._order_key, solver._target_block, solver._plan

        def reachable_plan(op, window, column_side, interior=False):
            if interior:
                raise AssertionError("whole-window set-up")
            return plan(op, window, column_side)

        def counting_key(radius, slots, eq):
            key = order_key(radius, slots, eq)

            def counted(i):
                keyed[eq].append(i)
                return key(i)

            return counted

        def recording(*args):
            blocks.append(target_block(*args))
            return blocks[-1]

        monkeypatch.setattr(solver, "_plan", reachable_plan)
        monkeypatch.setattr(solver, "_order_key", counting_key)
        monkeypatch.setattr(solver, "_target_block", recording)
        statuses = set()
        for name, target in [
            ("twisted_alpha2", d(0, 0)),
            ("twisted_alpha2", d(0, 0) - d(0, 2, LAMBDA)),
            ("alpha2", d(1, 1)),
            ("alpha2", d(1, 1) + d(0, 2)),
            ("alpha2", d(0, 2)),
            ("alpha1", CochainPair(ZF, d(1, 1))),
            ("alpha1", alpha1(d(1, 1))),
        ]:
            rep = coboundary_solve(target, name, 6)
            statuses.add(rep.status)
            edges, _ = blocks.pop()
            if rep.status == "unsolvable":
                table = OPERATORS[name].stencil
                keys = [key for key, _ in rep.certificate]
                certified = solver._ids(keys, 6 + table.reach, table.out_slots)
                assert sorted(keyed[True]) == sorted(certified + certified[-1:])
                assert keyed[False] == []
            else:
                assert keyed[True] == []
                assert sorted(keyed[False]) == sorted(edges)
            starts = block_starts(OPERATORS[name], 6, target)
            assert len(block_equations(starts, edges)) + len(edges) < (2 * 6 + 1) ** 2
            keyed[True].clear()
            keyed[False].clear()
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


def pivot_order(key):
    """Site by (|n|+|m|, n, m), then slot."""
    return (site_key(key[1]), key[0])


def equation_order(key):
    """Slot, then site by (|n|+|m|, n, m)."""
    return (key[0], site_key(key[1]))


def box_keys(slots, radius):
    """Every key (slot, (n, m)) of the box |n|, |m| <= radius, by (n, m, slot)."""
    span = range(-radius, radius + 1)
    return [(slot, (n, m)) for n in span for m in span for slot in range(slots)]


def window_variables(op, window):
    """Every variable of the window, in pivot order."""
    return sorted(box_keys(op.stencil.in_slots, window), key=pivot_order)


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
        key=equation_order,
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
    system: the variables its forest keeps on the column side, where each
    variable's edge holds the reference rows' coefficients in it; on the row
    side every variable but the last of each balanced component, the
    components taken from greedy_oracle, as the system's coefficients are
    Scalars and not gains."""
    eqs, rows = window_system(op, window, full_stencil=full_stencil)
    variables = window_variables(op, window)
    if op.column_side:
        columns = {v: [] for v in variables}
        for eq, (coeffs, _) in zip(eqs, rows):
            for v, c in coeffs.items():
                columns[v].append((eq, c))
        return solver._Forest({v: tuple(ends) for v, ends in columns.items()}).kept
    edges = {eq: tuple(coeffs.items()) for eq, (coeffs, _) in zip(eqs, rows)}
    _, find = greedy_oracle(edges)
    last = {find(v): v for v in variables if find(v) != find(None)}
    return set(variables) - set(last.values())


def _witness(op, pivots, rows):
    """Free variables 0, every pivot variable its row's right side."""
    parts = [{} for _ in range(op.stencil.in_slots)]
    for (slot, site), i in pivots.items():
        if rows[i][1]:
            parts[slot][site] = rows[i][1]
    return cochain_from_slots([LatticeFunctional(p) for p in parts])


class TestIds:
    """Dense integer ids of a windowed system's keys: distinct, decoded back
    to their keys, and in pivot or equation order once sorted by their
    integer order keys."""

    def test_round_trip_and_orders(self):
        for name, op in OPERATORS.items():
            for window in range(3, 9):
                # every equation a membership solve may impose lies one site
                # past the edge, on the box of radius window + reach
                assert op.stencil.reach == 1
                imposed = set(box_keys(op.stencil.out_slots, window + 1))
                eq_keys, _ = window_system(op, window, full_stencil=True)
                eqs = solver._ids(eq_keys, window + 1, op.stencil.out_slots)
                assert set(eq_keys) <= imposed
                for radius in (window, window + 1):
                    for slots in {op.stencil.in_slots, op.stencil.out_slots}:
                        keys = box_keys(slots, radius)
                        ids = solver._ids(keys, radius, slots)
                        assert ids == list(range(len(keys))), (name, window)
                        assert solver._keys(ids, radius, slots) == keys
                        for eq, order in ((False, pivot_order), (True, equation_order)):
                            key = solver._order_key(radius, slots, eq)
                            # distinct ints, so no tie is left to the input order
                            assert len({key(i) for i in reversed(ids)}) == len(ids)
                            by_key = sorted(reversed(ids), key=key)
                            assert solver._keys(by_key, radius, slots) == sorted(keys, key=order)
                # the window's full-stencil equations get distinct ids, which
                # decode back and come in equation order once sorted by their
                # integer key, whatever order they were listed in
                by_key = sorted(eqs[::-1], key=solver._order_key(window + 1, op.stencil.out_slots, True))
                assert by_key == eqs
                assert solver._keys(eqs, window + 1, op.stencil.out_slots) == eq_keys
                assert len(set(eqs)) == len(eqs)

    def test_tables_hold_every_entry_once(self):
        for op in OPERATORS.values():
            entries = sorted(op.stencil.entries)
            table = op.stencil
            assert sorted((o, *e) for o, row in enumerate(table.rows) for e in row) == entries
            readers = sorted((e[0], i, *e[1:]) for i, rd in enumerate(table.readers) for e in rd)
            assert readers == entries
            assert table.reach == 1

    def test_rows_read_the_table(self):
        # each equation's ends, decoded, are the nonzero window coefficients
        # of its row in the table, in the order of the slot's entries
        for name, op in OPERATORS.items():
            window = 4
            eqs, rows = window_system(op, window, full_stencil=True)
            ids = solver._ids(eqs, window + 1, op.stencil.out_slots)
            read = solver._ender(op, window, False)
            got = {eq: read(eq) for eq in ids}
            assert list(got) == ids
            for (coeffs, _), ends in zip(rows, got.values()):
                keys = solver._keys([v for v, _ in ends], window, op.stencil.in_slots)
                assert {k: solver._mul(ONE, g) for k, (_, g) in zip(keys, ends)} == coeffs
                assert len(ends) == len(coeffs)

    def test_ends_transpose(self):
        # each incidence (variable, equation, gain) is read once off the
        # variable's readers and once off the equation's row, with the same
        # gain, and that gain is the reference coefficient
        for name, op in OPERATORS.items():
            table = op.stencil
            for window in range(3, 7):
                radius = window + table.reach
                variables = range((2 * window + 1) ** 2 * table.in_slots)
                equations = range((2 * radius + 1) ** 2 * table.out_slots)
                column, row = solver._ender(op, window, True), solver._ender(op, window, False)
                columns = Counter((v, eq, g) for v in variables for eq, g in column(v))
                rows = Counter((v, eq, g) for eq in equations for v, g in row(eq))
                assert columns == rows, (name, window)
                assert set(rows.values()) == {1}
                eqs, ref = window_system(op, window)
                want = {
                    (v, eq): c
                    for eq, (coeffs, _) in zip(solver._ids(eqs, radius, table.out_slots), ref)
                    for v, c in zip(solver._ids(coeffs, window, table.in_slots), coeffs.values())
                }
                assert {(v, eq): solver._mul(ONE, g) for v, eq, g in rows} == want


class TestInteriorPlan:
    """A kernel's full-stencil rule is the bounds of the interior readers
    plan: the reader made with interior gives each window variable exactly
    the equations the reference full-stencil system imposes on it."""

    def test_interior_ends_are_the_full_stencil_equations(self):
        # each variable's interior ends are the reference equations that hold
        # it, with their coefficients; the reachable reader gives the same
        # ends two sites inside the edge and strictly more on the edge, so
        # the flag is read
        grew = set()
        for name, op in OPERATORS.items():
            table = op.stencil
            for window in range(3, 9):
                radius = window + table.reach
                eqs, rows = window_system(op, window, full_stencil=True)
                want = {}
                for eq, (coeffs, _) in zip(solver._ids(eqs, radius, table.out_slots), rows):
                    for v, c in zip(solver._ids(coeffs, window, table.in_slots), coeffs.values()):
                        want.setdefault(v, {})[eq] = c
                interior, reachable = solver._ender(op, window, True, True), solver._ender(op, window, True)
                edge = [0, 0]
                for v, (_, (n, m)) in enumerate(box_keys(table.in_slots, window)):
                    ends, every = interior(v), reachable(v)
                    assert {eq: solver._mul(ONE, g) for eq, g in ends} == want.get(v, {}), (name, window)
                    assert len(ends) == len(want.get(v, {}))
                    assert set(ends) <= set(every)
                    if max(abs(n), abs(m)) <= window - 2:
                        assert ends == every, (name, window)
                    elif max(abs(n), abs(m)) == window:
                        edge[0] += len(ends)
                        edge[1] += len(every)
                if edge[1] > edge[0]:
                    grew.add((name, window))
        assert {(name, w) for name in ("twisted_alpha2", "alpha2") for w in range(3, 9)} <= grew


class TestWindowType:
    """A window radius must be an int: a float would make float ids."""

    def test_float_windows_are_refused(self):
        pair = twisted_alpha1(d(0, 0))
        calls = [
            lambda: kernel_dimension("alpha1", 4.0),
            lambda: coboundary_solve(d(0, 0), "twisted_alpha2", 6.0),
            lambda: h1_trivialize(pair, 4.5),
            lambda: kernel_dimension("twisted_alpha1", True),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="window"):
                call()

    def test_type_is_checked_before_the_range(self):
        with pytest.raises(TypeError, match="window"):
            coboundary_solve(d(0, 0), "alpha2", 1.0)
        with pytest.raises(ValueError, match="at least 3"):
            coboundary_solve(d(0, 0), "alpha2", 2)


def seeded_pairs(seed, count=20):
    rng = random.Random(seed)
    return [
        CochainPair(random_functional(rng, 2, 3), random_functional(rng, 2, 3)) for _ in range(count)
    ]


NOT_A_CHAIN_MAP = "ROADMAP item 2: the untwisted degree-1 pullback is not a chain map"


class TestPullbacksOnCoboundaries:
    """A chain map sends coboundaries to coboundaries.  The two degree-2
    pullbacks do on 20 seeded sources each; the untwisted degree-1 one does
    not (ROADMAP item 2)."""

    def test_twisted_deg2_keeps_coboundaries(self):
        for x in seeded_pairs(21):
            target = cochains.twisted_pullback_deg2(twisted_alpha2(x))
            assert coboundary_solve(target, "twisted_alpha2", 8).status == "solved"

    def test_untwisted_deg2_keeps_coboundaries(self):
        for x in seeded_pairs(22):
            target = cochains.untwisted_pullback_deg2(alpha2(x))
            assert coboundary_solve(target, "alpha2", 8).status == "solved"

    @pytest.mark.xfail(strict=True, reason=NOT_A_CHAIN_MAP)
    def test_untwisted_deg1_keeps_cocycles(self):
        assert alpha2(cochains.untwisted_pullback_deg1(alpha1(d(1, 0)))).is_zero()

    @pytest.mark.xfail(strict=True, reason=NOT_A_CHAIN_MAP)
    def test_untwisted_deg1_keeps_coboundaries(self):
        rng = random.Random(23)
        for _ in range(20):
            x = random_functional(rng, radius=2, size=3)
            target = cochains.untwisted_pullback_deg1(alpha1(x))
            assert coboundary_solve(target, "alpha1", 8).status == "solved"


class TestPivotRuleOracle:
    """The gain-graph solver must reproduce Gauss-Jordan byte for byte: its
    greedy basis is the set of pivot columns, and its kernel bases and
    witnesses are those of the reduced echelon form."""

    def test_kernel_bases_match_first_row_rule(self, monkeypatch):
        # the variables of each kernel's gain graph, the forest's edges on
        # the column side and the walk's starts, read backwards, on the row
        # side, and its equations, the ends of the forest's edges or the
        # walk's edges
        graphs = []
        forest, target_block = solver._Forest, solver._target_block

        def recording_forest(edges):
            graphs.append((list(edges), {eq for ends in edges.values() for eq, _ in ends}))
            return forest(edges)

        def recording_walk(op, window, starts):
            block = target_block(op, window, starts)
            graphs.append((list(starts)[::-1], set(block[0])))
            return block

        monkeypatch.setattr(solver, "_Forest", recording_forest)
        monkeypatch.setattr(solver, "_target_block", recording_walk)
        for name in ("twisted_alpha1", "alpha1"):
            op = OPERATORS[name]
            for window in (3, 4, 5, 6):
                var_order = window_variables(op, window)
                eqs, rows = window_system(op, window, full_stencil=True)
                ids = solver._ids(eqs, window + 1, op.stencil.out_slots)
                imposed = {eq for eq, (coeffs, _) in zip(ids, rows) if coeffs}
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
                graphs.clear()
                rep = kernel_dimension(name, window)
                assert list(rep.basis) == basis
                # the kernel's system took every variable of the window in
                # pivot order, and exactly the full-stencil equations that
                # hold one of them
                assert len(graphs) == 1
                variables, equations = graphs.pop()
                assert solver._keys(variables, window, op.stencil.in_slots) == var_order
                assert equations == imposed

    def test_solved_witnesses_match_first_row_rule(self):
        targets = [
            ("alpha2", d(0, 2), (4, 5, 6)),
            ("alpha2", d(2, 0), (4, 5, 6)),
            ("alpha2", d(-1, -1), (4, 5, 6)),
            ("twisted_alpha2", d(0, 0) - d(0, 2, LAMBDA), (4, 5, 6)),
            ("twisted_alpha2", d(2, 0) - d(0, 0, LAMBDA), (4, 5, 6)),
            ("alpha1", alpha1(d(1, 1) + d(-1, 0, MU)), (4, 5)),
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


def recombine(rep, target, operator, window):
    """Re-check a certificate on the original equations alone: summed with
    its multipliers, their table coefficients (plain lambda_pow products)
    cancel at every variable of the window, and the right side does not."""
    op = OPERATORS[operator]
    left: dict = {}
    for (slot, (n, m)), mult in rep.certificate:
        for o, in_slot, dn, dm, terms in op.stencil.entries:
            if o == slot and abs(n + dn) <= window and abs(m + dm) <= window:
                c = sum((sign * lambda_pow(p * n + q * m + r) for sign, p, q, r in terms), ZERO)
                k = (in_slot, n + dn, m + dm)
                left[k] = left.get(k, ZERO) + mult * c
    assert left and not any(left.values())
    goal = cochain_slots(target)
    assert sum((mult * goal[slot].coeff(*site) for (slot, site), mult in rep.certificate), ZERO)


def plain_sum_holds(op, radius, certificate, parts):
    """The certificate check as a plain Scalar sum: every contribution built
    through coefficient and added site by site; the left side cancels on the
    box of the given radius and the right side does not."""
    left: dict = {}
    for (slot, (n, m)), mult in certificate:
        for in_slot, dn, dm, terms in op.stencil.rows[slot]:
            if abs(n + dn) <= radius and abs(m + dm) <= radius:
                k = (in_slot, n + dn, m + dm)
                left[k] = left.get(k, ZERO) + coefficient(terms, n, m, mult)
    right = sum((mult * parts[slot].coeff(*site) for (slot, site), mult in certificate), ZERO)
    return not any(left.values()) and bool(right)


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
            key=lambda kv: equation_order(kv[0]),
        )
        return SolveReport(name, window, "unsolvable", certificate=tuple(certificate))
    witness = _witness(op, pivots, rows)
    return SolveReport(
        name, window, "solved", witness=witness, residual=op.apply(witness) - target
    )


# solved and refuted blocks of each membership operator
BLOCK_CASES = [
    ("twisted_alpha2", d(0, 0), 5),
    ("twisted_alpha2", d(1, 0) + d(0, 1, MU), 6),
    ("twisted_alpha2", d(0, 0) - d(0, 2, LAMBDA), 5),
    ("twisted_alpha2", twisted_alpha2(CochainPair(d(1, 1) + d(-2, 0), d(0, 2, MU))), 6),
    ("alpha2", d(0, 2, ONE - LAMBDA), 5),
    ("alpha2", alpha2(CochainPair(d(0, 0) + d(1, 2), d(-1, 1))) + d(1, 1), 6),
    ("alpha1", CochainPair(d(-1, -1), d(0, 2)), 5),
    ("alpha1", alpha1(d(1, 1) + d(0, -2)), 6),
]


def kernel_starts(window):
    """The starts of twisted_alpha1's row-side kernel walk: every variable
    of the window, in descending pivot order."""
    return solver._ids(window_variables(OPERATORS["twisted_alpha1"], window)[::-1], window, 1)


def table_graph(name, window):
    """A table's whole windowed gain graph as {edge: ends}: every variable
    of the window on the column side, every full-stencil equation of the
    reference system on the row side, by slot, then n, then m."""
    op = OPERATORS[name]
    read = solver._ender(op, window, op.column_side)
    if op.column_side:
        return {v: read(v) for v in range((2 * window + 1) ** 2 * op.stencil.in_slots)}
    eqs, _ = window_system(op, window, full_stencil=True)
    return {eq: read(eq) for eq in solver._ids(sorted(eqs), window + 1, op.stencil.out_slots)}


def reread(monkeypatch, change):
    """Patch _ender, the reader of an edge's ends, so that the walk and the
    forest see change(i, ends) for the edge with id i."""
    ender = solver._ender

    def patched(*args):
        read = ender(*args)
        return lambda i: change(i, read(i))

    monkeypatch.setattr(solver, "_ender", patched)


def on_cycle(graph, ids, edge):
    """Does the edge of graph lie on a cycle of the two-ended edges ids: are
    its ends joined without it?"""
    near = {}
    for e in ids:
        if e != edge:
            (a, _), (b, _) = graph[e]
            near.setdefault(a, []).append(b)
            near.setdefault(b, []).append(a)
    (u, _), (v, _) = graph[edge]
    seen, todo = {u}, [u]
    while todo:
        for w in near.get(todo.pop(), ()):
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return v in seen


def times_binomial(gain):
    """The gain times 1 + u**2."""
    return tuple((sign, k + j) for sign, k in gain for j in (0, 2))


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
            sizes.append(len(block_equations(args[2], block[0])))
            return block

        monkeypatch.setattr(solver, "_target_block", recording)
        assert coboundary_solve(d(0, 0), "twisted_alpha2", 6).status == "unsolvable"
        assert coboundary_solve(d(1, 1), "alpha2", 6).status == "unsolvable"
        assert coboundary_solve(d(0, 2), "alpha2", 6).status == "solved"
        assert 0 < sizes[0] <= 60
        assert sizes[1:] == [1, 1]
        # far above the CLI sizes the block stays the target's: one
        # equation for the untwisted probe, the parity class for the twisted
        del sizes[:]
        assert coboundary_solve(d(1, 1), "alpha2", 64).status == "unsolvable"
        rep = coboundary_solve(d(0, 0), "twisted_alpha2", 32)
        assert rep.status == "unsolvable"
        assert sizes == [1, len(twisted_delta_block((0, 0), 32))]
        recombine(rep, d(0, 0), "twisted_alpha2", 32)

    def test_walk_is_the_targets_components(self):
        # the block is the union of the target's components in the whole
        # window's gain graph, read off the column reader over every
        # variable: the same {variable: ends} and equations, and one
        # balanced component per connected set of equations without a
        # half-edge, in the order of the target's equations, each started,
        # 1, at its first target equation.  Sites on n = 1 or m = 1 hold
        # vanishing alpha2 coefficients, and twisted supports span several
        # parity classes.
        rng = random.Random(32)
        covered = set()
        for name in ("twisted_alpha2", "alpha2"):
            op = OPERATORS[name]
            for window in range(4, 9):
                radius = window + op.stencil.reach
                graph = table_graph(name, window)
                held = {}
                for v, ends in graph.items():
                    for eq, _ in ends:
                        held.setdefault(eq, []).append(v)
                for _ in range(8):
                    sites = set()
                    for _ in range(rng.randint(1, 4)):
                        n, m = rng.randint(2 - window, window - 2), rng.randint(2 - window, window - 2)
                        sites.add(rng.choice([(n, m), (n, m), (1, m), (n, 1)]))
                    starts = solver._ids([(0, s) for s in sites], radius, 1)
                    want, variables = [], set()
                    for start in starts:
                        if any(start in nodes for nodes, _ in want):
                            continue
                        found, full = [start], False
                        for eq in found:
                            for v in held.get(eq, ()):
                                if v not in variables:
                                    variables.add(v)
                                    full |= len(graph[v]) == 1
                                    found += [u for u, _ in graph[v] if u not in found]
                        want.append((set(found), full))
                    edges, components = solver._target_block(op, window, starts)
                    assert edges == {v: graph[v] for v in variables}
                    assert block_equations(starts, edges) == set().union(*(nodes for nodes, _ in want))
                    assert [(set(p), next(iter(p))) for p in components] == [
                        (nodes, min(nodes & set(starts), key=starts.index)) for nodes, full in want if not full
                    ]
                    assert all(p[next(iter(p))] == (ONE, 0, 1) for p in components)
                    covered.add((name, "n = 1 or m = 1", any(1 in s for s in sites)))
                    covered.add((name, "parity classes", len({(n % 2, m % 2) for n, m in sites}) > 1))
        assert all((name, what, True) in covered for name in ("twisted_alpha2", "alpha2")
                   for what in ("n = 1 or m = 1", "parity classes"))

    def test_walk_carries_the_potentials(self):
        # on either side, a balanced component's lazy values are exactly 1 at
        # the start it was met from and nonzero, and every edge with an end
        # in it has both ends there and holds on them, which fixes them, as a
        # balanced potential is unique up to scale; a component with a
        # half-edge is not returned.  The row-side kernel walks from every
        # variable in descending pivot order, so each component starts at
        # its last variable, the kernel's free one, and the four parity
        # classes cover the window
        cases = [(name, target, w) for name, target, window in BLOCK_CASES for w in (window, 8)]
        for name, target, w in cases + [("twisted_alpha1", None, w) for w in range(3, 9)]:
            op = OPERATORS[name]
            if target is None:
                starts = kernel_starts(w)
                edges, components = solver._target_block(op, w, starts)
                position = {v: -i for i, v in enumerate(starts)}
                assert [next(iter(p)) for p in components] == [max(p, key=position.get) for p in components]
                assert len(components) == 4 and sum(map(len, components)) == len(starts)
            else:
                starts = block_starts(op, w, target)
                edges, components = solver._target_block(op, w, starts)
            for p in components:
                start = next(iter(p))
                assert start in starts and p[start] == (ONE, 0, 1)
                values = {v: solver._value(q) for v, q in p.items()}
                assert all(values.values())
                for ends in edges.values():
                    if any(v in p for v, _ in ends):
                        assert len(ends) == 2 and all(v in p for v, _ in ends), (name, w)
                        assert sum((values[v] * gain_value(c) for v, c in ends), ZERO) == ZERO, (name, w)

    def test_builds_each_variable_once(self, monkeypatch):
        # the walk reads an equation's variables off its rows and builds
        # ends only for the block's variables, each once: refuting the
        # twisted delta(0, 0) at W = 7 builds 112, where the ring walk also
        # built the ends of its 77 equations
        built, blocks = [], []
        ender, target_block = solver._ender, solver._target_block

        def counting(op, window, column_side, interior=False):
            read = ender(op, window, column_side, interior)

            def counted(i):
                built.append((column_side, i))
                return read(i)

            return counted

        def recording(*args):
            blocks.append(target_block(*args))
            return blocks[-1]

        monkeypatch.setattr(solver, "_ender", counting)
        monkeypatch.setattr(solver, "_target_block", recording)
        for name, target, window in BLOCK_CASES:
            for w in (window, 8):
                del built[:]
                coboundary_solve(target, name, w)
                edges, _ = blocks.pop()
                assert {column_side for column_side, _ in built} <= {True}
                assert sorted(i for _, i in built) == sorted(edges), (name, w)
        del built[:]
        assert coboundary_solve(d(0, 0), "twisted_alpha2", 7).status == "unsolvable"
        assert len(built) == 112

    def test_builds_each_equation_once_on_the_row_side(self, monkeypatch):
        # a row-side kernel's walk reads a variable's equations off its
        # readers' offsets and builds ends only for the full-stencil
        # equations, each once, all through the row reader
        built = []
        ender = solver._ender

        def counting(op, window, column_side, interior=False):
            read = ender(op, window, column_side, interior)

            def counted(i):
                built.append((column_side, i))
                return read(i)

            return counted

        monkeypatch.setattr(solver, "_ender", counting)
        op = OPERATORS["twisted_alpha1"]
        for window in range(3, 9):
            del built[:]
            assert kernel_dimension("twisted_alpha1", window).nullity == 4
            keys, _ = window_system(op, window, full_stencil=True)
            eqs = solver._ids(keys, window + 1, op.stencil.out_slots)
            assert len(built) == len(eqs), window
            assert {column_side for column_side, _ in built} == {False}
            assert sorted(i for _, i in built) == sorted(eqs)

    def test_zero_tests_read_the_terms(self):
        tables = [op.stencil for op in OPERATORS.values()] + [
            cochains.TWISTED_PULLBACK_DEG2, cochains.UNTWISTED_PULLBACK_DEG2,
            cochains.UNTWISTED_PULLBACK_DEG1,
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

    def test_one_recheck_for_every_certificate(self, monkeypatch):
        # a refuted membership solve and a refused h1 input go through the
        # same re-check, before the report is returned or the error raised
        checked = []
        recheck = solver._recheck

        def recording(op, radius, certificate, parts):
            checked.append((op.name, radius, certificate))
            recheck(op, radius, certificate, parts)

        monkeypatch.setattr(solver, "_recheck", recording)
        rep = coboundary_solve(d(0, 0), "twisted_alpha2", 5)
        pair = CochainPair(d(0, 1), ZF)
        with pytest.raises(NotACocycle) as exc:
            h1_trivialize(pair, 4)
        assert checked == [
            ("twisted_alpha2", 5, rep.certificate),
            ("twisted_alpha1", 5, exc.value.certificate),
        ]
        check_refusal(exc.value, pair, 4)


    def test_recheck_meets_as_the_plain_sum(self):
        # the re-check's meet of one-term contributions agrees with the plain
        # Scalar sum: every refutation certificate passes both, and each of
        # its single-coefficient corruptions raises once it holds two
        # equations; one equation with an empty row stays a certificate at
        # any nonzero multiplier, for both
        rng = random.Random(79)
        sites = ((0, 0), (1, 0), (0, 1), (1, 1))
        cases = [(d(*site), "twisted_alpha2", w) for site in sites for w in range(4, 9)]
        cases += [(d(1, 1, c), "alpha2", w) for c in (ONE, MU, -HALF) for w in (4, 7)]
        # alpha1's binomial entries meet four terms at a site, which cancel
        # only as a sum
        for name in ("twisted_alpha2", "alpha2", "alpha1"):
            seeded = []
            while len(seeded) < 4:
                window = rng.randint(5, 6)
                target = random_functional(rng, radius=window - 2, size=rng.randint(2, 5))
                if name == "alpha1":
                    target = CochainPair(target, random_functional(rng, radius=window - 2))
                if coboundary_solve(target, name, window).status == "unsolvable":
                    seeded.append((target, name, window))
            cases += seeded
        for target, name, window in cases:
            rep = coboundary_solve(target, name, window)
            op, goal, certificate = OPERATORS[name], cochain_slots(target), rep.certificate
            assert rep.status == "unsolvable"
            assert plain_sum_holds(op, window, certificate, goal)
            solver._recheck(op, window, certificate, goal)
            for i, (key, c) in enumerate(certificate):
                for bad in (ZERO, -c, c * LAMBDA, c + ONE):
                    corrupt = certificate[:i] + ((key, bad),) + certificate[i + 1:]
                    if len(certificate) == 1 and bad:
                        assert plain_sum_holds(op, window, corrupt, goal)
                        solver._recheck(op, window, corrupt, goal)
                        continue
                    with pytest.raises(RuntimeError, match=f"invalid {name} certificate"):
                        solver._recheck(op, window, corrupt, goal)

    def test_recheck_cancels_equal_table_signs(self, monkeypatch):
        # twisted_alpha2's row at (0, 0) as four twisted_alpha1 equations:
        # phi(1, 1) is read by first(0, 1), multiplier 1, and by second(1, 0),
        # multiplier -lambda, both through a table term of sign +1 (1 and
        # lambda**-n), so the two contributions cancel with opposite
        # numerators; the plain sum agrees, and each corruption raises
        op, window = OPERATORS["twisted_alpha1"], 4
        certificate = tuple(
            ((i, (dn, dm)), coefficient(terms, 0, 0))
            for _, i, dn, dm, terms in cochains.TWISTED_ALPHA2.entries
        )
        assert certificate[0] == ((0, (0, 1)), ONE) and certificate[2] == ((1, (1, 0)), -LAMBDA)
        goal = cochain_slots(CochainPair(d(0, 1), ZF))
        met = []
        cancels = solver._cancels

        def recording(x, j, s, y, k, t):
            met.append((x, s, y, t, cancels(x, j, s, y, k, t)))
            return met[-1][-1]

        monkeypatch.setattr(solver, "_cancels", recording)
        assert plain_sum_holds(op, window, certificate, goal)
        solver._recheck(op, window, certificate, goal)
        assert (ONE, 1, -LAMBDA, 1, True) in met
        for i, (key, c) in enumerate(certificate):
            for bad in (ZERO, -c, c * LAMBDA, c + ONE):
                corrupt = certificate[:i] + ((key, bad),) + certificate[i + 1:]
                assert not plain_sum_holds(op, window, corrupt, goal)
                with pytest.raises(RuntimeError, match="invalid twisted_alpha1 certificate"):
                    solver._recheck(op, window, corrupt, goal)


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
        sides = {name: op.column_side for name, op in OPERATORS.items()}
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


def greedy_oracle(edges):
    """The greedy basis of a gain graph whose cycles are all balanced: a
    plain union-find offered each edge in order, in which a half-edge joins
    its node to one extra ground node, None, and an edge with no ends is
    never kept.  The kept keys and the union-find's root of a node."""
    parent = {}

    def find(x):
        while parent.get(x, x) != x:
            x = parent[x]
        return x

    kept = set()
    for key, ends in edges.items():
        if ends:
            ru, rv = find(ends[0][0]), find(ends[1][0] if len(ends) == 2 else None)
            if ru != rv:
                parent[ru] = rv
                kept.add(key)
    return kept, find


def first_roots(edges, nodes, find):
    """The root of each tree of the greedy forest that holds no half-edge,
    find being greedy_oracle's: the first end of its component's first
    two-ended edge, in edge order, or its one node when it has none."""
    roots = {}
    for ends in edges.values():
        if len(ends) == 2:
            roots.setdefault(find(ends[0][0]), ends[0][0])
    for v in nodes:
        roots.setdefault(find(v), v)
    return {v for root, v in roots.items() if root != find(None)}


class TestGainGraph:
    """The frame-matroid basis and its forest on small hand-made gain graphs:
    balanced cycles, half-edges and unbalanced cycles; and the walk's
    refusal of an unbalanced cycle on the tables' own graphs."""

    def test_frame_keeps_the_greedy_basis(self):
        edges = triangle(MINUS)
        assert solver._Forest(edges).kept == {"ab", "bc"}
        # a half-edge makes the component full: it takes no second half-edge
        # and no edge to another full one
        edges["b"] = (("b", g((1, 3))),)
        assert solver._Forest(edges).kept == {"ab", "bc", "b"}
        edges.update(
            a=(("a", g((1, 2))),),
            d=(("d", UNIT),),
            ad=(("a", UNIT), ("d", UNIT)),
            de=(("d", UNIT), ("e", g((-1, 5)))),
        )
        forest = solver._Forest(edges)
        assert forest.kept == {"ab", "bc", "b", "d", "de"}
        # both components are full: every node is reached from the ground,
        # through its component's one half-edge, and none is a root
        assert sorted(v for _, v, _, _ in forest.steps) == list("abcde")
        assert [(key, v) for key, v, _, end in forest.steps if end is None] == [("b", "b"), ("d", "d")]

    def test_walk_gives_balanced_potentials(self):
        edges = monomial_triangle(g((1, -3)))
        assert solver._Forest(edges).kept == {"ab", "bc"}
        # one tree per balanced component, each rooted at the first end of
        # its first edge, in edge order: a, then z, neither reached by a step
        edges["z"] = (("z", UNIT), ("y", UNIT))
        forest = solver._Forest(edges)
        assert forest.kept == {"ab", "bc", "z"}
        assert [(key, v, end[0]) for key, v, _, end in forest.steps] == [
            ("ab", "b", "a"), ("bc", "c", "b"), ("z", "y", "z")
        ]
        # the roots move with the order of the ends, the kept edges do not
        flipped = {key: ends[::-1] for key, ends in edges.items()}
        forest = solver._Forest(flipped)
        assert forest.kept == {"ab", "bc", "z"}
        assert [(key, v, end[0]) for key, v, _, end in forest.steps] == [
            ("ab", "a", "b"), ("bc", "c", "b"), ("z", "z", "y")
        ]

    def test_frame_refuses_an_unbalanced_cycle(self, monkeypatch):
        # the forest keeps no edge that closes a cycle, balanced or not
        for edges in (
            triangle(UNIT), triangle(g((-1, 2))), triangle(g((-1, 0), (1, 2))),
            monomial_triangle(g((-1, -3))), monomial_triangle(g((1, -1))),
        ):
            assert solver._Forest(edges).kept == {"ab", "bc"}
        edges = dict(triangle(UNIT), a=(("a", UNIT),))
        assert solver._Forest(edges).kept == {"ab", "bc", "a"}
        # the walk checks every edge that closes its tree: one edge of a
        # table's balanced grid with one gain negated is refused, on either
        # side and with monomial gains or every gain times 1 + u^2, which
        # alone changes no output.  The same closing edges in a component
        # that a half-edge made full are not checked: it has no potential
        op = OPERATORS["twisted_alpha2"]
        starts = block_starts(op, 5, d(0, 0))
        sides = [
            # the row side at W = 4: equations joining (-1, 0) to (1, 0), and
            # (1, 0) to (1, 2)
            (solver._ids([(0, (0, 0)), (1, (1, 1))], 5, 2),
             lambda: kernel_dimension("twisted_alpha1", 4).to_json(),
             lambda: kernel_dimension("twisted_alpha1", 4).nullity == 3),
            # the column side at W = 5: variables joining (0, 0) to (0, 2),
            # and (0, 0) to (2, 0)
            (solver._ids([(0, (0, 1)), (1, (1, 0))], 5, 2),
             lambda: coboundary_solve(d(0, 0), "twisted_alpha2", 5).to_json(),
             lambda: solver._target_block(op, 5, starts)[1] == []),
        ]
        for (edge, half), run, full in sides:
            want = run()
            for binomial in (False, True):
                for negate, drop in ((False, False), (True, False), (True, True)):

                    def change(i, ends):
                        if binomial:
                            ends = tuple((v, times_binomial(c)) for v, c in ends)
                        if negate and i == edge:
                            (u, a), far = ends
                            ends = (u, negated(a)), far
                        return ends[:1] if drop and i == half else ends

                    reread(monkeypatch, change)
                    if drop:
                        assert full()
                    elif negate:
                        with pytest.raises(RuntimeError, match="unbalanced cycle"):
                            run()
                    else:
                        assert run() == want
                    monkeypatch.undo()

    def test_peeling_takes_a_tree_with_a_half_edge(self):
        edges = tree_with_half_edge()
        forest = solver._Forest(edges)
        assert forest.kept == set(edges)
        assert len(forest.steps) == len(edges)
        rhs = {"a": ONE, "b": S(2), "c": MU, "d": S(-4)}
        assert edge_sums(edges, forest.edge_values(rhs)) == rhs
        assert forest.edge_values({}) == {}

    def test_forest_values_solve_an_unbalanced_component(self):
        # the half-edge fixes the tree a-d, which has no potential; the
        # balanced e-f is walked from the first end of its edge, e
        kept = dict(tree_with_half_edge(), ef=(("e", UNIT), ("f", g((1, 2)))))
        forest = solver._Forest(kept)
        assert forest.kept == set(kept)
        # the tree a-d is walked first, from its half-edge, which has no end
        trees = [forest.steps[:4], forest.steps[4:]]
        assert [sorted(v for _, v, _, _ in t) for t in trees] == [["a", "b", "c", "d"], ["f"]]
        assert forest.steps[0][::3] == ("b", None)
        # edge values meet the right side at every node, the root e too, when
        # the value at f cancels its tree: -u^2 rhs[e] + rhs[f] = 0; any
        # other value at f, none included, is refused
        rhs = {"a": ONE, "b": S(2), "c": MU, "d": S(-4), "e": HALF, "f": mu_pow(2) * HALF}
        assert edge_sums(kept, forest.edge_values(rhs)) == rhs
        tree = {k: v for k, v in rhs.items() if k != "f"}
        for bad in ({}, {"f": ZERO}, {"f": HALF}, {"f": -mu_pow(2) * HALF}):
            with pytest.raises(RuntimeError, match="does not cancel at a balanced root"):
                forest.edge_values({**tree, **bad})
        # balanced: the first node is the root, and its right side must cancel
        edges = triangle(MINUS)
        forest = solver._Forest(edges)
        assert forest.kept == {"ab", "bc"}
        x = forest.edge_values({"a": S(3), "b": MU, "c": MU - S(3)})
        assert x == {"ab": S(3), "bc": MU - S(3)}
        assert edge_sums(edges, x) == {"a": S(3), "b": MU, "c": MU - S(3)}
        with pytest.raises(RuntimeError, match="does not cancel at a balanced root"):
            forest.edge_values({"a": S(3), "b": MU})


def random_gain(rng):
    """A monomial gain, or a binomial one whose two powers differ."""
    k = rng.randint(-3, 3)
    if rng.random() < 0.5:
        return g((rng.choice((1, -1)), k))
    return g((1, k), (rng.choice((1, -1)), k + rng.randint(1, 3)))


def random_kept(rng, nodes):
    """A random gain graph on nodes, half-edges offered or not, and its
    greedy basis: a forest whose trees hold at most one half-edge each."""
    halves = rng.random() < 0.5
    edges = {}
    for i in range(rng.randint(0, 2 * len(nodes))):
        u, v = rng.sample(nodes, 2)
        if halves and rng.random() < 0.2:
            edges[f"e{i}"] = ((u, random_gain(rng)),)
        else:
            edges[f"e{i}"] = ((u, random_gain(rng)), (v, random_gain(rng)))
    kept = solver._Forest(edges).kept
    return edges, {key: ends for key, ends in edges.items() if key in kept}


def shifted(gain, k):
    """The gain times u**k."""
    return tuple((sign, e + k) for sign, e in gain)


def negated(gain):
    return tuple((-sign, e) for sign, e in gain)


def random_value(rng):
    return mu_pow(rng.randint(-3, 3)) * rng.choice((1, -1, 2, HALF))


class TestForestProperties:
    """On random forests, with and without half-edges and with monomial and
    binomial gains, the forest's edge values solve their systems and its
    roots are the first ends of the balanced trees' first edges; on the
    tables' own graphs with planted gains the walk's potentials are the
    plant."""

    def test_random_forests(self):
        rng = random.Random(71)
        for _ in range(150):
            nodes = list("abcdefghij"[: rng.randint(2, 10)])
            rng.shuffle(nodes)
            edges, kept = random_kept(rng, nodes)
            oracle_kept, find = greedy_oracle(edges)
            assert set(kept) == oracle_kept
            forest = solver._Forest(kept)
            assert forest.kept == set(kept) and len(forest.steps) == len(kept)
            # each balanced tree's root is the first end of its first edge,
            # the one node no step reaches; a full tree is the ground's
            roots = first_roots(kept, nodes, find)
            assert {v for v in nodes if v not in {v for _, v, _, _ in forest.steps}} == roots
            # edge values: a right side made from random values on the kept
            # edges gives them back, as a forest's values are unique; moved
            # by one at a balanced root, it is refused
            x = {key: random_value(rng) for key in kept if rng.random() < 0.7}
            rhs = edge_sums(kept, x)
            assert forest.edge_values(rhs) == x
            for root in roots:
                with pytest.raises(RuntimeError, match="does not cancel at a balanced root"):
                    forest.edge_values({**rhs, root: rhs.get(root, ZERO) + ONE})

    def test_walk_grows_the_greedy_basis(self):
        # random gain graphs with half-edges, parallel edges, edges with no
        # ends and several components: the walk keeps what a plain
        # union-find with a ground node keeps, offered each edge in order,
        # and its steps attach each node once, each from a node attached
        # earlier or from a tree root, the first end of the first edge of a
        # component that holds no half-edge
        rng = random.Random(74)
        for _ in range(1000):
            nodes = list(range(rng.randint(1, 12)))
            rng.shuffle(nodes)
            edges, pairs = {}, []
            for i in range(rng.randint(0, 3 * len(nodes))):
                r = rng.random()
                if r < 0.1:
                    edges[i] = ()
                elif r < 0.3 or len(nodes) == 1:
                    edges[i] = ((rng.choice(nodes), random_gain(rng)),)
                else:
                    u, v = rng.choice(pairs) if pairs and r < 0.45 else rng.sample(nodes, 2)
                    pairs.append((v, u))
                    edges[i] = ((u, random_gain(rng)), (v, random_gain(rng)))
            forest = solver._Forest(edges)
            kept, find = greedy_oracle(edges)
            assert forest.kept == kept
            attached = [v for _, v, _, _ in forest.steps]
            assert len(attached) == len(set(attached)) == len(kept)
            roots = {v for v in nodes if v not in attached}
            assert roots == first_roots(edges, nodes, find)
            done = set(roots)
            for key, v, gain, end in forest.steps:
                if end is None:
                    assert edges[key] == ((v, gain),)
                else:
                    assert end[0] in done and edges[key] in (((v, gain), end), (end, (v, gain)))
                done.add(v)

    def test_random_balanced_graphs(self, monkeypatch):
        # the tables' own graphs on either side, with planted signed-monomial
        # potentials: each edge gets a random gain at its first end and the
        # gain at the other that holds on the plant, both sometimes times
        # 1 + u^2, and some components get a half-edge, one edge losing an
        # end.  The walk gives each component without a half-edge the plant,
        # scaled to 1 at its start, and refuses a negated gain on one of its
        # edges; in a component with a half-edge it checks nothing
        rng = random.Random(73)
        planted, drop, negate = {}, set(), set()

        def plant(v):
            return planted.setdefault(v, (rng.choice((1, -1)), rng.randint(-3, 3)))

        def change(i, ends):
            (u, _), (v, _) = ends
            (su, ku), (sv, kv), (sa, ka) = plant(u), plant(v), (rng.choice((1, -1)), rng.randint(-3, 3))
            a, b = g((sa, ka)), g((-su * sa * sv, ku + ka - kv))
            if rng.random() < 0.3:
                a, b = times_binomial(a), times_binomial(b)
            if i in negate:
                a = negated(a)
            return ((u, a),) if i in drop else ((u, a), (v, b))

        cases = [("twisted_alpha1", w, kernel_starts(w)) for w in (3, 4, 6)]
        for w in (4, 5, 6):
            for _ in range(3):
                sites = {(rng.randint(2 - w, w - 2), rng.randint(2 - w, w - 2)) for _ in range(rng.randint(1, 4))}
                cases.append(("twisted_alpha2", w, solver._ids([(0, s) for s in sites], w + 1, 1)))
        graphs = [table_graph(name, w) for name, w, _ in cases]
        reread(monkeypatch, change)
        checked = Counter()
        for (name, w, starts), graph in zip(cases, graphs):
            op = OPERATORS[name]
            component = {}
            for ends in graph.values():
                merged = set().union(*(component.get(v, {v}) for v, _ in ends))
                component.update(dict.fromkeys(merged, merged))
            blocks = []
            for start in starts:
                if not any(start in nodes for _, nodes, _ in blocks):
                    nodes = component[start]
                    blocks.append((start, nodes, [e for e, ends in graph.items() if ends[0][0] in nodes]))
            for trial in range(3):
                planted.clear()
                drop.clear()
                negate.clear()
                drop.update(rng.choice(ids) for _, _, ids in blocks if rng.random() < 0.4)
                edges, balanced = solver._target_block(op, w, starts)
                want = []
                for start, nodes, ids in blocks:
                    if not drop & set(ids):
                        sr, kr = planted[start]
                        want.append({v: planted[v][0] * sr * mu_pow(planted[v][1] - kr) for v in nodes})
                assert [{v: solver._value(q) for v, q in p.items()} for p in balanced] == want
                checked[name, "balanced"] += len(want)
                checked[name, "full"] += len(blocks) - len(want)
                for _, _, ids in blocks:
                    negate.clear()
                    negate.add(next(e for e in rng.sample(ids, len(ids)) if on_cycle(graph, ids, e)))
                    if drop & set(ids):
                        solver._target_block(op, w, starts)
                    else:
                        with pytest.raises(RuntimeError, match="unbalanced cycle"):
                            solver._target_block(op, w, starts)
                        checked[name, "refused"] += 1
        assert all(checked[name, what] >= 5 for name in ("twisted_alpha1", "twisted_alpha2")
                   for what in ("balanced", "full", "refused"))

    def test_random_monomial_triangles(self):
        # a-b, b-c and c-a, every gain one pair: from p[c] = 1 the walk's
        # steps (_step) reach b and a, each only moving the power of u of
        # the same one Scalar, and c-a closes the cycle (_balanced), in
        # either orientation; the gain at a that balances it is worked out by
        # hand, and a negated or shifted one is refused
        rng = random.Random(72)
        for _ in range(100):
            (sa, ka), (sb, kb), (sc, kc), (sd, kd), (se, ke) = (
                (rng.choice((1, -1)), rng.randint(-4, 4)) for _ in range(5)
            )
            sign_a, power_a = sb * sa * sd * sc, kb - ka + kd - kc
            balanced = g((-se * sign_a, ke - power_a))
            p = {"c": (ONE, 0, 1)}
            p["b"] = solver._step(p["c"], g((sd, kd)), g((sc, kc)))  # bc: (b, (sc, kc)), (c, (sd, kd))
            p["a"] = solver._step(p["b"], g((sb, kb)), g((sa, ka)))  # ab: (a, (sa, ka)), (b, (sb, kb))
            assert p == {"c": (ONE, 0, 1), "b": (ONE, kd - kc, -sd * sc), "a": (ONE, power_a, sign_a)}
            assert p["a"][0] is ONE and p["b"][0] is ONE
            assert {v: solver._value(q) for v, q in p.items()} == {
                "c": ONE, "b": -sd * sc * mu_pow(kd - kc), "a": sign_a * mu_pow(power_a)
            }
            ca = (("c", g((se, ke))), ("a", balanced))
            solver._balanced(p, [ca])
            solver._balanced(p, [ca[::-1]])
            for closing in (negated(balanced), shifted(balanced, rng.choice((-1, 1)))):
                with pytest.raises(RuntimeError, match="unbalanced cycle"):
                    solver._balanced(p, [(("c", g((se, ke))), ("a", closing))])


class TestWalkWork:
    """Potentials are one walk of the gain graph: the forest is built only
    where an output reads the greedy basis or edge values, and the re-check
    meets one-term contributions without building them."""

    def test_frames_and_forests_only_for_edge_values(self, monkeypatch):
        built = 0
        init = solver._Forest.__init__

        def counting(self, *args):
            nonlocal built
            built += 1
            init(self, *args)

        monkeypatch.setattr(solver._Forest, "__init__", counting)

        def work(run):
            nonlocal built
            built = 0
            run()
            return built

        for site in ((0, 0), (1, 0), (0, 1), (1, 1)):
            assert work(lambda: coboundary_solve(d(*site), "twisted_alpha2", 6)) == 0
        assert work(lambda: coboundary_solve(d(1, 1), "alpha2", 6)) == 0
        for window in (4, 8):
            assert work(lambda: kernel_dimension("twisted_alpha1", window)) == 0
            # the forest gives the free edges; the one circuit, phi(0, 0),
            # is the edge with no ends
            assert work(lambda: kernel_dimension("alpha1", window)) == 1
        assert work(lambda: coboundary_solve(d(0, 2), "alpha2", 5)) == 1
        assert work(lambda: coboundary_solve(d(0, 0) - d(0, 2, LAMBDA), "twisted_alpha2", 5)) == 1

    def test_refutation_builds_few_scalars(self, monkeypatch):
        # the walk carries its potentials as shifts of one Scalar, the
        # closing edges compared and the certificate met without building
        # its contributions: refuting the twisted delta(0, 0) at W = 7
        # builds 78 Scalars, one per certificate multiplier but the root's
        built = 0
        raw = Scalar._raw.__func__

        def counting(cls, *args):
            nonlocal built
            built += 1
            return raw(cls, *args)

        monkeypatch.setattr(Scalar, "_raw", classmethod(counting))
        assert coboundary_solve(d(0, 0), "twisted_alpha2", 7).status == "unsolvable"
        assert built <= 80

    def test_witness_builds_no_potential(self, monkeypatch):
        # a solved twisted solve pairs its lazy potentials with the right
        # side and never builds one: the walk makes no Scalar, and no lazy
        # value is made one.  This solve builds 55 Scalars in all
        rng = random.Random(7)
        built = {"walk": 0, "value": 0, "all": 0}
        where = []
        raw = Scalar._raw.__func__
        target_block, value = solver._target_block, solver._value

        def counting(cls, *args):
            built["all"] += 1
            for name in where:
                built[name] += 1
            return raw(cls, *args)

        def inside(name, run):
            def wrapped(*args):
                where.append(name)
                try:
                    return run(*args)
                finally:
                    where.pop()

            return wrapped

        monkeypatch.setattr(Scalar, "_raw", classmethod(counting))
        monkeypatch.setattr(solver, "_target_block", inside("walk", target_block))
        monkeypatch.setattr(solver, "_value", inside("value", value))
        source = CochainPair(random_functional(rng, radius=4), random_functional(rng, radius=4))
        target = twisted_alpha2(source)
        built.update(walk=0, value=0, all=0)
        assert coboundary_solve(target, "twisted_alpha2", 7).status == "solved"
        assert len(target.terms) > 10
        assert built["walk"] == built["value"] == 0
        assert 0 < built["all"] <= 60


class TestMonomialGains:
    """Every coefficient is held as its gain: one (sign, k) pair for each
    twisted entry, so a twisted solve only shifts powers of u."""

    def test_gains_equal_coefficients(self):
        tables = [op.stencil for op in OPERATORS.values()] + [
            cochains.TWISTED_PULLBACK_DEG2, cochains.UNTWISTED_PULLBACK_DEG2,
            cochains.UNTWISTED_PULLBACK_DEG1,
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
        assert entries == 16

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

    def test_monomial_forest_steps_shift_once(self, monkeypatch):
        # a forest step between two one-pair gains, x times -a/b, is one
        # Scalar.shift; as a product then a quotient it made 1,020 shifts on
        # the kernel and 448 on the refutation
        calls = 0
        shift = Scalar.shift

        def counting(self, *args):
            nonlocal calls
            calls += 1
            return shift(self, *args)

        monkeypatch.setattr(Scalar, "shift", counting)
        counts = []
        for _ in range(2):
            calls = 0
            assert kernel_dimension("twisted_alpha1", 8).nullity == 4
            kernel, calls = calls, 0
            assert coboundary_solve(d(0, 0), "twisted_alpha2", 7).status == "unsolvable"
            counts.append((kernel, calls))
        assert counts[0] == counts[1]
        kernel, refutation = counts[0]
        assert 0 < kernel <= 510
        assert 0 < refutation <= 336

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
    order, so no choice of pivot order can trade correctness for speed, and
    outputs of the engine that no order of a block's edges changes."""

    @given(st.sampled_from(BLOCK_CASES), st.randoms(use_true_random=False))
    @no_shrink
    def test_edge_order_changes_no_output(self, case, rnd):
        # the walk's tree follows the order of each slot's table entries
        # (_plan) and of each edge's ends (_ender): shuffling both changes
        # the tree but not the potentials, 1 at the same starts, nor any
        # report, kernels included; and no insertion order of a block's
        # edges changes the report
        name, target, window = case
        op = OPERATORS[name]
        # one draw of the example's stream seeds the many shuffles below
        rnd = random.Random(rnd.getrandbits(64))
        starts = block_starts(op, window, target)
        edges, components = solver._target_block(op, window, starts)
        want = coboundary_solve(target, name, window).to_json()
        kernels = {k: kernel_dimension(k, window).to_json() for k in ("twisted_alpha1", "alpha1")}
        plan, ender = solver._plan, solver._ender

        def shuffled_plan(*args):
            *sizes, rows = plan(*args)
            return (*sizes, [rnd.sample(row, len(row)) for row in rows])

        def shuffled_ender(*args):
            read = ender(*args)
            return lambda i: tuple(rnd.sample(read(i), len(read(i))))

        with mock.patch.object(solver, "_plan", shuffled_plan), mock.patch.object(solver, "_ender", shuffled_ender):
            moved, again = solver._target_block(op, window, starts)
            assert {v: set(ends) for v, ends in moved.items()} == {v: set(ends) for v, ends in edges.items()}
            assert [{v: solver._value(q) for v, q in p.items()} for p in again] == [
                {v: solver._value(q) for v, q in p.items()} for p in components
            ]
            assert [next(iter(p)) for p in again] == [next(iter(p)) for p in components]
            assert coboundary_solve(target, name, window).to_json() == want
            assert {k: kernel_dimension(k, window).to_json() for k in kernels} == kernels
        keys = list(edges)
        rnd.shuffle(keys)
        shuffled = {v: edges[v] for v in keys}
        with mock.patch.object(solver, "_target_block", lambda *args: (shuffled, components)):
            assert coboundary_solve(target, name, window).to_json() == want

    def test_equation_and_term_order_change_no_byte(self, monkeypatch):
        # a kernel's forest takes its roots in the order its edges' ends
        # first meet them, and a membership solve starts a component at each
        # of the target's equations in turn: reversing or shuffling each
        # edge's ends, which moves the roots, or reversing the order the
        # target's terms were inserted in, changes no byte
        rng = random.Random(33)
        forest, attached = solver._Forest, []

        def recording_forest(edges):
            built = forest(edges)
            attached.append({v for _, v, _, _ in built.steps})
            return built

        monkeypatch.setattr(solver, "_Forest", recording_forest)
        kernels = {
            (name, window): json.dumps(kernel_dimension(name, window).to_json())
            for name in OPERATORS for window in (3, 4, 6)
        }
        want_attached = attached[:]
        for reorder in (lambda ends: ends[::-1], lambda ends: tuple(rng.sample(ends, len(ends)))):
            del attached[:]
            with monkeypatch.context() as patch:
                reread(patch, lambda i, ends: reorder(ends))
                for (name, window), want in kernels.items():
                    assert json.dumps(kernel_dimension(name, window).to_json()) == want, (name, window)
            assert attached != want_attached
        monkeypatch.undo()

        def reversed_terms(target):
            return cochain_from_slots(
                [LatticeFunctional(dict(reversed(part.terms.items()))) for part in cochain_slots(target)]
            )

        statuses = set()
        cases = BLOCK_CASES + [
            ("twisted_alpha2", d(1, 1) + d(0, 1, MU) + d(1, 0, LAMBDA) + d(0, 0), 5),
            ("twisted_alpha2", d(0, 0) + d(0, 2, LAMBDA) + d(2, 0), 6),
            ("alpha2", d(1, 1) + d(0, 2) + d(1, -1) + d(-1, 1, MU), 6),
            ("alpha1", CochainPair(d(1, 0) + d(-1, -1), d(0, 1) + d(2, 2, MU)), 5),
        ]
        for name, target, window in cases:
            flipped = reversed_terms(target)
            assert flipped == target
            assert [list(p.terms) for p in cochain_slots(flipped)] == [
                list(p.terms)[::-1] for p in cochain_slots(target)
            ]
            rep = coboundary_solve(target, name, window)
            statuses.add(rep.status)
            assert json.dumps(coboundary_solve(flipped, name, window).to_json()) == json.dumps(
                rep.to_json()
            ), (name, window)
        assert statuses == {"solved", "unsolvable"}

    def test_potential_scale_changes_no_output(self):
        # a component's potential is unique up to scale: pairing it with the
        # right side does not see the scale, the certificate is 1 at its
        # root and a witness's forest reads only the start, so rescaling the walk's lazy values by -u**3, which keeps
        # each x, or by (1 + u)/2, which makes each x its own, changes no
        # byte, and neither does holding every other value as (-x, k, -s).
        # The real tables only ever carry the sign +1.
        half = (ONE + MU) * HALF
        cases = BLOCK_CASES + [
            ("twisted_alpha2", d(1, 1) + d(0, 1, MU) + d(1, 0, LAMBDA) + d(0, 0), 5),
            ("alpha2", d(1, 1) + d(0, 2) + d(-1, 1, MU), 6),
            ("alpha1", CochainPair(d(1, 0) + d(-1, -1), d(0, 1) + d(2, 2, MU)), 5),
        ]
        target_block = solver._target_block
        for rescale in (
            lambda i, x, k, s: (x, k + 3, -s),
            lambda i, x, k, s: (x * half, k, s),
            lambda i, x, k, s: (-x, k, -s) if i % 2 else (x, k, s),
        ):
            def rescaled(*args):
                edges, balanced = target_block(*args)
                return edges, [
                    {eq: rescale(i, *q) for i, (eq, q) in enumerate(p.items())} for p in balanced
                ]

            for name, target, window in cases:
                want = json.dumps(coboundary_solve(target, name, window).to_json())
                with mock.patch.object(solver, "_target_block", rescaled):
                    assert json.dumps(coboundary_solve(target, name, window).to_json()) == want

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
    """Phase 1's line walk on one row of the first component, and the
    first-component rows h1_trivialize refuses."""

    def test_zero_row(self):
        assert solver._line_walk({}, 2, 5) == {}

    def test_delta_row_frozen_tail(self):
        # gamma[-1] = 0 below the delta, gamma[1] = 1, then
        # gamma[n+2] = lambda gamma[n] up to the window edge
        gamma = walk(d(0, 1), 1, 5)
        assert gamma == d(1, 1, 1) + d(3, 1, LAMBDA) + d(5, 1, lambda_pow(2))

    def test_row_reproduced_on_interior(self):
        # the sweep equals the per-step reference walk; besides random rows:
        # sites of one parity far apart, sites at n = +-window and
        # +-(window-1), negative sites of both parities, rows of coboundaries
        # over non-unit denominators, and a row whose second site negates the
        # shifted carry's numerator but not its denominator
        rng = random.Random(7)
        window = 6
        rows = []
        for _ in range(20):
            s0 = rng.randint(-4, 4)
            rows.append((s0, LatticeFunctional(
                {(rng.randint(-3, 3), s0): mu_pow(rng.randint(-2, 2)) for _ in range(3)}
            )))

        def c():
            return mu_pow(rng.randint(-2, 2)) * rng.choice([1, -1, 3])

        rational = Scalar.parse("(1 + u)/(2 - u^2)")
        for s0 in (-3, 0, 5):
            line = LatticeFunctional({(n, s0): c() * rational for n in (-5, -4, -1, 2)})
            image = twisted_alpha1(line).first
            for sites in ((-5, -4, 4, 5), (-window, 1 - window, window - 1, window), (-5, -2, -1)):
                rows.append((s0, LatticeFunctional({(n, s0): c() for n in sites})))
            rows += [(s0, image), (s0, image + line.restrict(window - 1)), (s0, LatticeFunctional({
                (-3, s0): Scalar(0, (1,), (1, 1)), (-1, s0): Scalar(2 * s0, (-1,), (2, 1)),
            }))]
        for s0, row in rows:
            assert solver._line_walk(row_of(row), s0, window) == reference_walk(row_of(row), s0, window)
            gamma = walk(row, s0, window)
            out = twisted_alpha1(gamma)
            # first component lives on the row and matches it inside
            for (n, m) in out.first.support():
                assert m == s0
            for n in range(-window + 1, window):
                assert out.first.coeff(n, s0) == row.coeff(n, s0)

    def test_rejects_row_outside_window(self):
        # h1_trivialize refuses a first-component row beyond |y| <= window
        for s0 in (9, -5):
            with pytest.raises(ValueError, match="exceeds the window"):
                h1_trivialize(CochainPair(d(0, s0), ZF), 4)

    def test_rejects_a_bare_function_row(self):
        with pytest.raises(TypeError, match="finite CochainPair"):
            h1_trivialize(CochainPair(d00_rule, ZF), 4)

    def test_rejects_wrong_type_row(self):
        for row in (SERIES, CochainPair(d(0, 0), ZF)):
            with pytest.raises(TypeError, match="finite CochainPair"):
                h1_trivialize(CochainPair(row, ZF), 4)

    def test_line_without_finite_preimage_tails_upwards(self):
        # h = c d(-2) + c' d(1) on y = s0: gamma[-1 + 2k] = lambda^(k s0) c and
        # gamma[2 + 2k] = lambda^(k s0) c', nothing below the lowest source
        # site; the odd chain is cut at n = window, the even one at window - 1
        window, s0 = 7, -2
        c, c2 = MU, Scalar.from_int(-3)
        row = d(-2, s0, c) + d(1, s0, c2)
        gamma = walk(row, s0, window)
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
            assert walk(twisted_alpha1(phi).first, s0, window) == phi


def closed_form(eta, s0, window):
    """The per-row closed form of phase 2, evaluated with lambda_pow
    products: lambda^((k+1)n) eta[n] on row s0+1+2k above the row, rows
    |y| <= window."""
    above = {}
    for (n, _), c in eta.terms.items():
        for k in range((window - s0 - 1) // 2 + 1):
            above[(n, s0 + 1 + 2 * k)] = lambda_pow((k + 1) * n) * c
    return above


def column_walks(rows, window):
    """Phase 2's walks of a second-component map: the line walk of each
    column n scaled by lambda^n at s0 = n, as a functional."""
    columns = {(m, n): lambda_pow(n) * c for (n, m), c in rows.terms.items()}
    return LatticeFunctional({(n, m): c for (m, n), c in solver._walk_rows(columns, window).items()})


class TestRowSolve:
    """Phase 2 on second-component rows: h1_trivialize absorbs every row at
    |y| <= window-1 above it, one line walk upwards per column, and leaves
    the rows |y| = window, which no interior equation reads."""

    def test_zero_row(self):
        for window in (3, 4, 8):
            assert solver._walk_rows({}, window) == {}
            assert column_walks(ZF, window) == ZF
            assert h1_trivialize(CochainPair(ZF, ZF), window).witness == ZF

    def test_periodic_constant_row_below(self):
        # at s0 = 1 the recurrence factor is 1, so 2-periodic rows qualify;
        # the row is absorbed on the rows above it
        window = 4
        eta = LatticeFunctional(
            {(n, 1): (ONE if n % 2 == 0 else mu_pow(1)) for n in range(-window, window + 1)}
        )
        rho = h1_trivialize(CochainPair(ZF, eta), window).witness
        assert {m for (_, m) in rho.support()} == {2, 4}
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
        rho = h1_trivialize(CochainPair(ZF, eta), window).witness
        assert {m for (_, m) in rho.support()} == {0, 2, 4}
        out = twisted_alpha1(rho)
        for n in range(-window, window + 1):
            assert out.second.coeff(n, -1) == eta.coeff(n, -1)

    def test_closed_form_at_every_row(self):
        # the column walks of a single row are its upward closed form, which
        # sweeps nothing at s0 = window; h1_trivialize takes it at every
        # |s0| <= window-1 and absorbs nothing at |s0| = window.  Rows add:
        # the witness of their sum is the sum of their closed forms
        rng = random.Random(73)
        for window in (3, 4, 6):
            total, want_total = ZF, ZF
            for s0 in range(-window, window + 1):
                eta = recurrence_row(rng, s0, window)
                above = LatticeFunctional(closed_form(eta, s0, window))
                assert column_walks(eta, window) == above
                assert (above == ZF) == (s0 == window)
                want = above if abs(s0) < window else ZF
                rep = h1_trivialize(CochainPair(ZF, eta), window)
                assert rep.witness == want and rep.residual.is_zero()
                assert all(abs(m) <= window for _, m in rep.witness.terms)
                total, want_total = total + eta, want_total + want
            rep = h1_trivialize(CochainPair(ZF, total), window)
            assert rep.witness == want_total and rep.residual.is_zero()

    def test_non_cocycle_row_site(self):
        # a row off its recurrence inside the window is no cocycle, refused
        # where its recurrence first fails; at |y| = window no interior
        # equation reads it, so it is a cocycle and nothing is absorbed
        with pytest.raises(NotACocycle) as exc:
            h1_trivialize(CochainPair(ZF, d(0, 2)), 4)
        assert exc.value.site == (-1, 2)
        for s0 in range(-3, 4):
            with pytest.raises(NotACocycle) as exc:
                h1_trivialize(CochainPair(ZF, d(1, s0, MU)), 4)
            assert exc.value.site == (0, s0)
        for s0 in (4, -4):
            rep = h1_trivialize(CochainPair(ZF, d(0, s0)), 4)
            assert rep.witness == ZF and rep.residual.is_zero()

    def test_rejects_row_outside_window(self):
        # h1_trivialize refuses a second-component row beyond |y| <= window
        for s0 in (-9, 9):
            with pytest.raises(ValueError, match="exceeds the window"):
                h1_trivialize(CochainPair(ZF, d(0, s0)), 4)

    def test_rejects_a_bare_function_row(self):
        with pytest.raises(TypeError, match="finite CochainPair"):
            h1_trivialize(CochainPair(ZF, d00_rule), 4)

    def test_rejects_wrong_type_row(self):
        for row in (SERIES, CochainPair(d(0, 0), ZF)):
            with pytest.raises(TypeError, match="finite CochainPair"):
                h1_trivialize(CochainPair(ZF, row), 4)


def twisted_out(f, g, n, m):
    """twisted_alpha2(f, g) at (n, m), off its recurrence."""
    return (lambda_pow(-n) * f.coeff(n, m + 1) - LAMBDA * f.coeff(n, m - 1)
            - LAMBDA * g.coeff(n + 1, m) + lambda_pow(m) * g.coeff(n - 1, m))


def untwisted_out(f, g, n, m):
    """alpha2(f, g) at (n, m), off its recurrence."""
    return ((lambda_pow(n) - LAMBDA) * f.coeff(n, m - 1)
            + (lambda_pow(m) - LAMBDA) * g.coeff(n - 1, m))


def first_violation(out, pair, window):
    """The first interior site in (|n| + |m|, n, m) order where out of the
    pair is nonzero, or None."""
    inner = range(-window + 1, window)
    sites = sorted(((n, m) for n in inner for m in inner),
                   key=lambda s: (abs(s[0]) + abs(s[1]), s[0], s[1]))
    return next((s for s in sites if out(pair.first, pair.second, *s)), None)


def check_refusal(refusal, pair, window):
    """A NotACocycle's certificate is twisted_alpha2's row at its site as
    four twisted_alpha1 equations, ((slot, site), multiplier) pairs.  It
    passes recombine at window + 2, where no site its equations read is
    cut, with twisted_alpha2 of the pair at the site on the right; every
    single-coefficient corruption fails recombine and the engine's re-check."""
    (n, m), certificate = refusal.site, refusal.certificate
    assert [(slot, (a - n, b - m)) for (slot, (a, b)), _ in certificate] == [
        (0, (0, 1)), (0, (0, -1)), (1, (1, 0)), (1, (-1, 0)),
    ]
    radius, goal = window + 2, cochain_slots(pair)
    recombine(refusal, pair, "twisted_alpha1", radius)
    right = sum((c * goal[slot].coeff(*site) for (slot, site), c in certificate), ZERO)
    assert right == twisted_out(pair.first, pair.second, n, m)
    for i, (key, c) in enumerate(certificate):
        for bad in (ZERO, -c, c * LAMBDA, c + ONE):
            corrupt = certificate[:i] + ((key, bad),) + certificate[i + 1:]
            with pytest.raises(AssertionError):
                recombine(SolveReport("twisted_alpha1", radius, "unsolvable", certificate=corrupt),
                          pair, "twisted_alpha1", radius)
            with pytest.raises(RuntimeError, match="invalid twisted_alpha1 certificate"):
                solver._recheck(OPERATORS["twisted_alpha1"], radius, corrupt, goal)


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
                    check_refusal(exc.value, twisted, window)
                    refused += 1
                want = first_violation(untwisted_out, untwisted, window)
                assert cochains._violations(alpha2(untwisted.restrict(window)), window) == want
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
                    check_refusal(exc.value, pair, window)
                    refused += 1
                pair = bump(cocycle, unread_first)
                assert first_violation(twisted_out, pair, window) is None
                assert h1_trivialize(pair, window).residual.is_zero()
                solved += 1
                # a term on the rows |m| = window of second is read by no
                # interior equation either, and phase 2 leaves it
                pair = bump(cocycle, [(1, (k, g))])
                assert first_violation(twisted_out, pair, window) is None
                rep = h1_trivialize(pair, window)
                assert rep.residual.is_zero()
                assert rep.witness == h1_trivialize(cocycle, window).witness
                solved += 1
        assert (refused, solved) == (72, 48)

    def test_edge_row_bumps_are_cocycles(self):
        # a finite coboundary bumped on second at (k, +-window): no interior
        # equation reads the bump, so the pair is a windowed cocycle, solved
        # with the unbumped witness, its source
        rng = random.Random(37)
        solved = 0
        for window in (4, 6, 8):
            for i in range(8):
                phi = random_functional(rng, radius=window - 2, size=5)
                cocycle = twisted_alpha1(phi)
                site = (rng.randint(-window, window), window if i % 2 else -window)
                second = cocycle.second + d(*site, mu_pow(rng.randint(-2, 2)))
                pair = CochainPair(cocycle.first, second)
                assert first_violation(twisted_out, pair, window) is None
                rep = h1_trivialize(pair, window)
                assert rep.residual.is_zero()
                assert rep.witness == h1_trivialize(cocycle, window).witness == phi
                solved += 1
        assert solved == 24

    def test_cocycle_check_is_the_interior_row_recurrence(self):
        # seeded windowed inputs: a coboundary of 0-6 sites, 0-3 recurrence
        # rows at y in [-window, window] and 0-3 bumps in either component.
        # Phase 1 clears the band, and the input is refused exactly when a
        # row of what it leaves of second, at |y| <= window-1, fails
        # E[w+1] = lambda^(y-1) E[w-1] at some |w| <= window-1: the interior
        # equation of twisted_alpha2 there.  It is refused at the first
        # interior violation, and solved otherwise, also when a row |y| =
        # window fails its recurrence (edge)
        rng = random.Random(47)
        refused = solved = edge = 0
        for window in range(3, 11):
            for _ in range(40):
                phi = random_functional(rng, radius=window - 1, size=rng.randint(0, 6))
                pair = twisted_alpha1(phi)
                for _ in range(rng.randint(0, 3)):
                    row = recurrence_row(rng, rng.randint(-window, window), window)
                    pair = pair + CochainPair(ZF, row)
                halves = [dict(pair.first.terms), dict(pair.second.terms)]
                for _ in range(rng.randint(0, 3)):
                    terms = rng.choice(halves)
                    site = (rng.randint(-window, window), rng.randint(-window, window))
                    terms[site] = terms.get(site, ZERO) + mu_pow(rng.randint(-2, 2))
                pair = CochainPair(*map(LatticeFunctional, halves))

                gamma = LatticeFunctional._of(solver._walk_rows(pair.first.terms, window))
                out = twisted_alpha1(gamma)
                band = (pair.first - out.first).terms
                assert not [(n, m) for n, m in band if abs(n) < window and abs(m) <= window]
                left = pair.second - out.second
                inner = range(-window + 1, window)
                broken = any(
                    left.coeff(w + 1, y) != lambda_pow(y - 1) * left.coeff(w - 1, y)
                    for y in inner for w in inner
                )
                want = first_violation(twisted_out, pair, window)
                assert (want is not None) == broken
                if broken:
                    with pytest.raises(NotACocycle) as exc:
                        h1_trivialize(pair, window)
                    assert exc.value.site == want
                    check_refusal(exc.value, pair, window)
                    refused += 1
                else:
                    assert h1_trivialize(pair, window).residual.is_zero()
                    solved += 1
                    edge += any(
                        left.coeff(w + 1, y) != lambda_pow(y - 1) * left.coeff(w - 1, y)
                        for y in (-window, window) for w in inner
                    )
        assert (refused, solved, edge) == (230, 90, 10)

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
    surviving second-component row at |s0| <= window-1: lambda^(kn) eta[n] on
    row s0+(2k-1) above it, rows |y| <= window, all summed into one dict."""
    acc = {}
    rows = {}
    for (n, m), c in pair.first.terms.items():
        rows.setdefault(m, {})[n] = c
    for s0, h in rows.items():
        acc.update({(n, s0): c for n, c in reference_walk(h, s0, window).items()})
    leftover = (pair.second - twisted_alpha1(LatticeFunctional(acc)).second).restrict(window)
    for (n, s0), c in leftover.terms.items():
        if abs(s0) == window:
            continue
        for k in range(1, (window - s0 + 1) // 2 + 1):
            site = (n, s0 + (2 * k - 1))
            acc[site] = acc.get(site, ZERO) + lambda_pow(k * n) * c
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
    """h1_trivialize absorbs the surviving rows in one upward sweep per
    column and parity chain; the per-row stacks it replaces are the
    oracle."""

    def test_gamma_is_applied_once(self, monkeypatch):
        # the residual of phase 1's gamma against the input gives the
        # leftover, the cocycle check and, when no row survives, the
        # re-check: one kernel pass per finite coboundary; a surviving row
        # adds the input's explicit twisted_alpha2 and the witness's re-check
        rng = random.Random(61)
        coboundaries = [
            (twisted_alpha1(random_functional(rng, radius=w - 2, size=8)), w)
            for w in (6, 10, 16) for _ in range(4)
        ]
        rows = [(CochainPair(ZF, recurrence_row(rng, s0, w)), w) for s0, w in ((2, 6), (-3, 10))]
        calls = 0
        residual = cochains.Stencil.residual

        def counting(self, x, target=None):
            nonlocal calls
            calls += 1
            return residual(self, x, target)

        monkeypatch.setattr(cochains.Stencil, "residual", counting)
        for pair, window in coboundaries:
            assert h1_trivialize(pair, window).residual.is_zero()
        assert calls == len(coboundaries)
        calls = 0
        for pair, window in rows:
            assert h1_trivialize(pair, window).residual.is_zero()
        assert calls == 3 * len(rows)

    def test_scalar_constructions_stay_few(self, monkeypatch):
        # the re-check meets the image of gamma against the input term by
        # term, and the line walk builds nothing where a carry cancels: on
        # these window-10 coboundaries an h1 pass builds 6 Scalars, where
        # building the image and walking it against the input took 163, and
        # a line walk that built a shift and a sum at every step 37
        rng = random.Random(61)
        coboundaries = [twisted_alpha1(random_functional(rng, radius=8, size=8)) for _ in range(4)]
        built = 0
        raw = Scalar._raw.__func__

        def counting(cls, *args):
            nonlocal built
            built += 1
            return raw(cls, *args)

        monkeypatch.setattr(Scalar, "_raw", classmethod(counting))
        for pair in coboundaries:
            assert h1_trivialize(pair, 10).residual.is_zero()
        assert built <= 6

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
        # recurrence check that multiplied by absent entries 176; on this
        # coboundary every carry cancels at its chain's next site, so an h1
        # pass makes no product and no shift, while a row with no finite
        # preimage shifts its tail up to the window edge
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
        assert calls == {"__mul__": 0, "shift": 0}
        assert solver._line_walk({0: MU}, 5, 16) == {n: mu_pow(5 * n - 4) for n in range(1, 17, 2)}
        assert calls == {"__mul__": 0, "shift": 7}


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
        # a difference, a stencil term of sign -1 added to a site that
        # already holds a value, and one met against the target negate no
        # numerator; one negation per such term and subtraction made 245
        # calls on this cocycle, and building the negated numerator for
        # each match 16
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
        assert calls == 0

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
                assert clean(walk(h, s0, window))
            for y in (s0, -s0):
                eta = recurrence_row(rng, y, window)
                columns = {(m, n): c.shift(2 * n) for (n, m), c in eta.terms.items()}
                assert clean(LatticeFunctional._of(solver._walk_rows(columns, window)))
                assert clean(h1_trivialize(CochainPair(ZF, eta), window).witness)
            for w in (6, 10):
                rep = h1_trivialize(twisted_alpha1(random_functional(rng, radius=w - 2, size=6)), w)
                # the residual is empty, so it holds no zero either
                assert clean(rep.witness) and rep.residual.is_zero()
