"""Windowed exact linear algebra and the constructive degree-1 solver.

Everything here works on finite truncations of the lattice complexes: the
variables are cochain coefficients on the square window [-N, N]^2 and the
constraints are coefficient equations of one of the four named differentials
(`twisted_alpha1`, `twisted_alpha2`, `alpha1`, `alpha2`).  Both are read off
the differential's stencil table in cochains.py: an equation (out_slot, site)
references the input sites its table entries name, even where an entry's
coefficient vanishes there (alpha1 at m = 0, alpha2 at n = 1 or m = 1), and
its row holds the nonzero coefficients of the referenced sites inside the
window.

Two truncation conventions are used, on purpose:

* kernel computations impose an equation only when every input site it
  references lies inside the window (the full-stencil rule).  This removes
  boundary artifacts, so the reported nullity is the honest kernel
  dimension of the truncated system.
* membership solves (is the target a coboundary?) impose the equation at
  every site the windowed variables can reach.  An "unsolvable" answer then
  comes with a certificate: an exact linear combination of the imposed
  equations whose left side cancels identically while the right side does
  not.  Unsolvability is always window-bounded evidence, never a blanket
  claim about the infinite lattice.

Every windowed system here is a two-term system, and it is solved on its
gain graph rather than by elimination.  The orientation is read off the
stencil table.  When every input slot is read by at most two entries, every
column holds at most two nonzeros: the equations are the nodes and the
variables the edges (the column side: twisted_alpha2, alpha1, alpha2).
Otherwise every equation holds at most two: the variables are the nodes and
the equations the edges (the row side: twisted_alpha1).  An edge with one
nonzero is a half-edge.  Every nonzero coefficient is invertible, so a
connected component either is balanced, carrying a potential p, unique up to
scale, with p[u] a + p[v] b = 0 along every edge ((u, a), (v, b)), or it is
not, and then its edges span every coordinate of its nodes: the frame matroid
of the gain graph (Zaslavsky, "Biased graphs II", JCTB 51, 1991).

No cycle of these graphs is unbalanced (the solver tests check the tables):

* on the row side, D_ij = u^(nm - ij) (`make_D`) balances every equation
  edge of twisted_alpha1;
* on the column side, y_ij = u^(n - m - nm) balances every variable edge of
  twisted_alpha2;
* each alpha1 equation holds one variable, so its graph is a matching;
* each alpha2 variable is read by one entry, so its edges are half-edges;
* windowing only drops ends: a two-ended windowed edge has its lattice gains.

Variables are ordered by (|n|+|m|, n, m), then slot (the pivot order), and
equations by slot, then site.  A coefficient is held as its gain, the
entry's terms at the site as (sign, k) pairs for sign * u**k: one pair for
a twisted entry, two for an untwisted binomial.  A product or quotient by
one pair is one Scalar.shift; a binomial is made a Scalar only to divide.
As no cycle is unbalanced, the greedy basis of the frame matroid depends on
connectivity alone: a union-find without weights (_Frame) grows it in edge
order, a forest whose trees hold at most one half-edge each.  One forest
walk (_forest_walk) finds values on its nodes, potentials included, and
checks the rejected edges on them; one leaf-peeling solve (_Peeling) finds
values on its edges.

On the column side the greedy basis is exactly the set of pivot columns
Gauss-Jordan elimination takes in the pivot order (its pivot columns are the
lexicographically first column basis, whichever pivot rows it picks), so
every output equals Gauss-Jordan's, byte for byte:

* kernel basis: for each non-basis variable f, in pivot order, x[f] = 1 and
  the basis values that peel the right side -A_f;
* witness: the basis values that peel the target, every other variable 0;
* certificate: a balanced component's potential is its only combination of
  equations with a zero left side.  It is normalized to 1 at the component's
  last equation, the row left unused by Gauss-Jordan that pivots on the
  first unused row holding each variable: the unused rows of a balanced
  component always cancel with nonzero multipliers, so a variable held by
  one of them is held by two, and the last is never the first to hold it.
  Of the inconsistent components, the one whose last equation comes first
  is reported, as Gauss-Jordan's first bad row.

On the row side:

* kernel basis: one potential per balanced component, normalized to 1 at its
  last variable.  Any other set of a component's variables is independent, so
  that variable is Gauss-Jordan's free one, and the bases are equal;
* witness: the values along a spanning forest walked from each component's
  half-edge, or from its last variable, set to 0: Gauss-Jordan's witness;
* certificate: the first equation, in equation order, that the greedy basis
  of the equations rejects and that the witness leaves unsatisfied.  Its
  fundamental circuit, the one combination of it and the kept equations
  with a zero left side, is found by peeling the transposed graph and is
  normalized to 1 at that equation.  This rule is the solver's own:
  Gauss-Jordan's certificate there depends on the pivot rows it picks.

Every witness is re-checked by applying the operator, and every certificate
against the table's original equations, read through `coefficient`, before
it is returned.  They also guard the row side's membership solves, which
walk no potentials.

A membership solve sets up only the target's connected block: the equations
reached from the target's support, two equations being connected when both
hold some variable with a nonzero coefficient.  This cannot change an output:
an equation outside the block has a zero right side, so it yields neither a
witness entry nor an inconsistent component.  The block is read off the
stencil table around the target alone, its rows keyed by equation
(out_slot, site): no list of the window's equations or variables is set up.
Kernel computations still set up every equation, as the nullity needs every
block.

The second half of the module implements the constructive proof that the
flip-twisted first cohomology vanishes, as a two-phase pipeline:

* `line_eliminate` cancels one row of the first component with a degree-0
  cochain supported on that row, walking each parity chain upwards from its
  lowest support site n with the gauge gamma[n-1] = 0;
* `row_solve` absorbs one second-component row eta at y=s0 (which must
  satisfy the row recurrence eta[w+1] = lambda**(s0-1) eta[w-1]; this is
  checked, not assumed) with a telescoping sweep over the rows of the other
  parity, carried below s0 down to y = -window or above it up to
  y = window (|s0| <= window is required);
* `h1_trivialize` cancels every first-component row with `line_eliminate`,
  checks every surviving second-component row's recurrence, and absorbs
  all of them at once: one carry sweep per direction (rows y >= 0 below,
  y < 0 above) and parity chain of rows, which is the sum of the per-row
  sweeps of `row_solve`, value for value, at a fraction of the products.
  The witness's differential reproduces the input exactly at every
  interior site of the window.

The input's cocycle check is read off the witness re-check when it can be.
As twisted_alpha2 after twisted_alpha1 is zero (the solver tests check the
tables), twisted_alpha2(pair) = twisted_alpha2(E) for E = pair -
twisted_alpha1(gamma), gamma being phase 1's cochain.  At the interior sites
|n|, |m| <= window-1, twisted_alpha2 reads E.first on the band |n| <=
window-1, |m| <= window, one row wider than the reported residual, and
E.second on the window, which is the leftover.  So when no row survives
phase 1 and E.first vanishes on the band, the input is a cocycle and the
image of gamma, the re-check, is the only stencil application.  Otherwise
twisted_alpha2(pair) is applied before any row recurrence is checked.  A
non-cocycle is refused either way with `NotACocycle` at its smallest
interior violation in site order, the site `kernel_check_twisted_deg1`
reports.

The witness of twisted_alpha1(phi), for a finite phi inside the window, is
phi, its only finitely supported preimage.  An input with no finite
preimage gets the upward tails of the walks and sweeps, fixed choices that
change with the window.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .cochains import (
    ALPHA1,
    ALPHA2,
    TWISTED_ALPHA1,
    TWISTED_ALPHA2,
    CochainPair,
    LatticeFunctional,
    Stencil,
    alpha1,
    alpha2,
    cochain_from_slots,
    cochain_slots,
    coefficient,
    site_key,
    twisted_alpha1,
    twisted_alpha2,
    _violations,
)
from .scalars import ONE, ZERO, Scalar
from .torus import Site

VarKey = tuple[int, Site]
EqKey = tuple[int, Site]


class RecurrenceViolation(ValueError):
    """A row handed to row_solve fails its defining recurrence."""

    def __init__(self, site: Site, message: str):
        super().__init__(message)
        self.site = site


class NotACocycle(ValueError):
    """h1_trivialize was given a pair outside the windowed kernel."""

    def __init__(self, site: Site):
        super().__init__(f"twisted_alpha2 of the input is nonzero at {site}")
        self.site = site


# ---------------------------------------------------------------------------
# named operators


@dataclass(frozen=True)
class Operator:
    name: str
    apply: Callable
    stencil: Stencil


OPERATORS: dict[str, Operator] = {
    "twisted_alpha1": Operator("twisted_alpha1", twisted_alpha1, TWISTED_ALPHA1),
    "twisted_alpha2": Operator("twisted_alpha2", twisted_alpha2, TWISTED_ALPHA2),
    "alpha1": Operator("alpha1", alpha1, ALPHA1),
    "alpha2": Operator("alpha2", alpha2, ALPHA2),
}


def _get_operator(name: str) -> Operator:
    try:
        return OPERATORS[name]
    except KeyError:
        raise ValueError(
            f"unknown operator {name!r}; expected one of {sorted(OPERATORS)}"
        ) from None


def _vector_object(op: Operator, vec: dict[VarKey, Scalar]):
    parts: list[dict[Site, Scalar]] = [{} for _ in range(op.stencil.in_slots)]
    for (slot, site), c in vec.items():
        parts[slot][site] = c
    return cochain_from_slots([LatticeFunctional._of(t) for t in parts])


# ---------------------------------------------------------------------------
# windowed systems


def _var_order(v: VarKey):
    """Pivot order: site by (|n|+|m|, n, m), then slot."""
    return (site_key(v[1]), v[0])


def _eq_order(eq: EqKey):
    """Equation order: slot, then site."""
    return (eq[0], site_key(eq[1]))


def _variables(op: Operator, window: int) -> list[VarKey]:
    sites = sorted(
        ((n, m) for n in range(-window, window + 1) for m in range(-window, window + 1)),
        key=site_key,
    )
    return [(slot, s) for s in sites for slot in range(op.stencil.in_slots)]


def _inside(site: Site, window: int) -> bool:
    return abs(site[0]) <= window and abs(site[1]) <= window


def _equations(op: Operator, window: int) -> list[EqKey]:
    """Equations (out_slot, site) whose stencil reads all of its input sites
    inside the window.  Every table entry counts, also where its coefficient
    vanishes at that site.  The condition splits by coordinate, so the sites
    of a slot form the box its offsets' extremes leave inside the window."""
    out = []
    for slot in range(op.stencil.out_slots):
        dns, dms = zip(*((dn, dm) for o, _, dn, dm, _ in op.stencil.entries if o == slot))
        ns = range(-window - min(dns), window - max(dns) + 1)
        ms = range(-window - min(dms), window - max(dms) + 1)
        out += [(slot, (n, m)) for n in ns for m in ms]
    out.sort(key=_eq_order)
    return out


def _vanishes(terms, n: int, m: int) -> bool:
    """Is coefficient(terms, n, m) zero?  The tables hold one or two terms:
    one term never vanishes, and two vanish exactly where their exponents
    agree and their signs differ."""
    if len(terms) == 1:
        return False
    (s1, p1, q1, r1), (s2, p2, q2, r2) = terms
    return s1 != s2 and p1 * n + q1 * m + r1 == p2 * n + q2 * m + r2


def _row(op: Operator, window: int, eq: EqKey) -> dict[VarKey, tuple]:
    """The row of equation eq read off the stencil table, without zero
    coefficients or variables outside the window, each coefficient held as
    its gain."""
    slot, (n, m) = eq
    coeffs = {}
    for o, in_slot, dn, dm, terms in op.stencil.entries:
        a, b = n + dn, m + dm
        if o == slot and abs(a) <= window and abs(b) <= window and not _vanishes(terms, n, m):
            coeffs[(in_slot, (a, b))] = _gain(terms, n, m)
    return coeffs


def _gain(terms, n: int, m: int) -> tuple:
    """An entry's coefficient at (n, m) as a gain: its terms (sign, p, q, r)
    as (sign, k) pairs, the sum of sign * u**k with k = 2(pn + qm + r)."""
    return tuple([(s, 2 * (p * n + q * m + r)) for s, p, q, r in terms])


def _mul(x: Scalar, gain, sign: int = 1) -> Scalar:
    """sign * x times a gain: one Scalar.shift per pair."""
    s, k = gain[0]
    out = x.shift(k, sign * s)
    for s, k in gain[1:]:
        out = out + x.shift(k, sign * s)
    return out


def _div(x: Scalar, gain) -> Scalar:
    """x divided by a gain: one Scalar.shift by a one-pair gain.  A binomial
    gain is made a Scalar only here."""
    if len(gain) == 1:
        return x.shift(-gain[0][1], gain[0][0])
    return x / _mul(ONE, gain)


def _target_block(op: Operator, window: int, goal) -> dict[EqKey, dict]:
    """Rows of the equations connected to the support of the target, given
    by its slots (goal), keyed by equation.  Two rows are connected when both
    hold a variable with a nonzero coefficient; a variable's equations are
    found by reading the stencil offsets backwards, so only the block's sites
    are ever visited."""
    readers = [
        [(o, dn, dm, terms) for o, s, dn, dm, terms in op.stencil.entries if s == slot]
        for slot in range(op.stencil.in_slots)
    ]
    todo = [(slot, s) for slot, part in enumerate(goal) for s in part.terms]
    block: dict[EqKey, dict] = {}
    seen: set[VarKey] = set()
    while todo:
        eq = todo.pop()
        if eq in block:
            continue
        block[eq] = row = _row(op, window, eq)
        for k in row.keys() - seen:
            seen.add(k)
            in_slot, (a, b) = k
            for o, dn, dm, terms in readers[in_slot]:
                n, m = a - dn, b - dm
                if not _vanishes(terms, n, m):
                    todo.append((o, (n, m)))
    return block


def _column_side(op: Operator) -> bool:
    """Orientation of op's windowed systems, read off its stencil table.
    When every input slot is read by at most two entries, every column holds
    at most two nonzeros: the equations are the nodes of the gain graph and
    the variables its edges.  Otherwise every equation holds at most two,
    and the variables are the nodes and the equations the edges."""
    entries = op.stencil.entries
    return all(sum(e[1] == i for e in entries) <= 2 for i in range(op.stencil.in_slots))


class _Frame:
    """Greedy basis of the frame matroid of a gain graph, grown edge by edge.

    An edge is a tuple of (node, gain) ends: two, one (a half-edge) or none.
    Every cycle of these graphs is balanced, so which edges the basis keeps
    depends on connectivity alone, and this is a union-find without
    weights.  A component in `full` has taken a half-edge and spans every
    coordinate of its nodes; the others are balanced.  No edge that closes
    a cycle is kept; the forest walk checks its balance.
    """

    __slots__ = ("parent", "size", "full")

    def __init__(self):
        self.parent = {}
        self.size = {}
        self.full = set()

    def find(self, x):
        """The root of x, compressing the path."""
        parent = self.parent
        root = parent.setdefault(x, x)
        while parent[root] != root:
            root = parent[root]
        while x != root:
            parent[x], x = root, parent[x]
        return root

    def add(self, ends) -> bool:
        """Offer the next edge; True when the greedy basis keeps it."""
        full = self.full
        if len(ends) != 2:
            if not ends:
                return False
            root = self.find(ends[0][0])
            if root in full:
                return False
            full.add(root)
            return True
        ru, rv = self.find(ends[0][0]), self.find(ends[1][0])
        if ru == rv or (ru in full and rv in full):
            return False
        size = self.size
        if size.get(ru, 1) < size.get(rv, 1):
            ru, rv = rv, ru
        self.parent[rv] = ru
        size[ru] = size.get(ru, 1) + size.get(rv, 1)
        if rv in full:
            full.add(ru)
        return True


class _Peeling:
    """Values x on the edges of a frame-matroid basis with
    sum_e x[e] A_e = rhs, where A_e holds the gains at the ends of e.

    The basis is a forest whose trees hold at most one half-edge each, so
    peeling pendant edges, each fixed by its leaf, in an order computed
    once, takes every edge.  A balanced component keeps one node unpeeled,
    where the right side cancels whenever the system is consistent.
    """

    __slots__ = ("steps",)

    def __init__(self, edges: dict):
        incident: dict = {}
        for key, ends in edges.items():
            for node, _ in ends:
                incident.setdefault(node, []).append(key)
        degree = {node: len(keys) for node, keys in incident.items()}
        done = set()
        # (edge, leaf, gain at the leaf, the other ends)
        self.steps = []
        leaves = [node for node, k in degree.items() if k == 1]
        while leaves:
            u = leaves.pop()
            if degree[u] != 1:
                continue
            degree[u] = 0
            key = next(k for k in incident[u] if k not in done)
            done.add(key)
            ends = edges[key]
            c = next(c for node, c in ends if node == u)
            rest = tuple(e for e in ends if e[0] != u)
            self.steps.append((key, u, c, rest))
            for v, _ in rest:
                degree[v] -= 1
                if degree[v] == 1:
                    leaves.append(v)

    def solve(self, rhs: dict) -> dict:
        r = dict(rhs)
        x = {}
        for key, u, c, rest in self.steps:
            val = r.pop(u, None)
            if not val:
                continue
            val = _div(val, c)
            x[key] = val
            for v, b in rest:
                t = _mul(val, b, -1)
                r[v] = r[v] + t if v in r else t
        return x


def _graph(column_side: bool, rows: dict[EqKey, dict], variables: list[VarKey]):
    """The gain graph of a system: (nodes, {edge: ends}), both in order.
    rows maps every equation, in equation order, to its gains; variables
    lists every variable, in pivot order."""
    if not column_side:
        return variables, {eq: tuple(coeffs.items()) for eq, coeffs in rows.items()}
    columns: dict[VarKey, list] = {v: [] for v in variables}
    for eq, coeffs in rows.items():
        for k, c in coeffs.items():
            columns[k].append((eq, c))
    return list(rows), {v: tuple(ends) for v, ends in columns.items()}


def _forest_walk(kept: dict, nodes: list, rhs: dict | None = None, rejected=()) -> list[dict]:
    """Values on the nodes of the kept forest, with a x[u] + b x[v] = rhs[e]
    on every kept edge e = ((u, a), (v, b)) and c x[u] = rhs[e] on a
    half-edge ((u, c),), as one dict of nonzero values per tree: those with a
    half-edge first, walked from its node, then the balanced ones from their
    last node in nodes backwards.  That node is set to 0 given a right side
    (witnesses), else to 1: each balanced tree gets its potential, 1 there,
    the others 0, and every rejected two-ended edge must hold on them, or
    the gain graph has an unbalanced cycle."""
    seed = ONE if rhs is None else ZERO
    rhs = rhs or {}
    incident: dict = {}
    starts = []
    for key, ends in kept.items():
        if len(ends) == 1:
            r = rhs.get(key)
            starts.append((ends[0][0], _div(r, ends[0][1]) if r else ZERO))
        else:
            for v, _ in ends:
                incident.setdefault(v, []).append(key)
    trees = []
    seen: set = set()
    for start, value in starts + [(v, seed) for v in reversed(nodes)]:
        if start in seen:
            continue
        seen.add(start)
        tree = {}
        queue = [(start, value)]
        for u, xu in queue:
            if xu:
                tree[u] = xu
            for key in incident.get(u, ()):
                ends = kept[key]
                (_, a), (v, b) = ends if ends[0][0] == u else ends[::-1]
                if v not in seen:
                    seen.add(v)
                    val = _mul(xu, a, -1) if xu else ZERO
                    r = rhs.get(key)
                    if r:
                        val = r + val
                    queue.append((v, _div(val, b) if val else ZERO))
        if tree:
            trees.append(tree)
    if rejected:
        x = {u: c for tree in trees for u, c in tree.items()}
        for (u, a), (v, b) in rejected:
            if _mul(x.get(u, ZERO), a) != _mul(x.get(v, ZERO), b, -1):
                raise RuntimeError("the gain graph has an unbalanced cycle")
    return trees


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a windowed kernel or membership computation.

    status is one of "kernel-basis", "solved", "unsolvable".  On "solved"
    the witness satisfies operator(witness) == target exactly (this is
    re-verified by applying the operator, not trusted from the solve);
    the residual is that exact difference.  On "unsolvable" the certificate
    is a tuple of ((slot, site), multiplier) equation combinations that
    cancel on the left and not on the right.
    """

    operator: str
    window: int
    status: str
    witness: object = None
    residual: object = None
    certificate: tuple = None
    nullity: int = None
    basis: tuple = None

    def to_json(self) -> dict:
        out = {"operator": self.operator, "window": self.window, "status": self.status}
        if self.nullity is not None:
            out["nullity"] = self.nullity
        if self.basis is not None:
            out["basis"] = [b.to_json() for b in self.basis]
        if self.witness is not None:
            out["witness"] = self.witness.to_json()
        if self.residual is not None:
            out["residual"] = self.residual.to_json()
        if self.certificate is not None:
            out["certificate"] = [
                {"slot": slot, "n": site[0], "m": site[1], "c": str(c)}
                for (slot, site), c in self.certificate
            ]
        return out


def kernel_dimension(operator: str, window: int) -> SolveReport:
    """Exact nullity and kernel basis of a differential on the window.

    Only full-stencil equations are imposed.  Basis vectors are normalized
    to 1 at their free coefficient and listed in pivot order.
    """
    op = _get_operator(operator)
    if window < 3:
        raise ValueError("window radius must be at least 3")
    column_side = _column_side(op)
    variables = _variables(op, window)
    rows = {eq: _row(op, window, eq) for eq in _equations(op, window)}
    nodes, edges = _graph(column_side, rows, variables)
    frame = _Frame()
    kept = {key: ends for key, ends in edges.items() if frame.add(ends)}
    rejected = [ends for key, ends in edges.items() if len(ends) == 2 and key not in kept]
    if column_side:
        if rejected:
            # the basis is peeled; the potentials only check the balance
            _forest_walk(kept, nodes, rejected=rejected)
        peeling = _Peeling(kept)
        basis = []
        for f, ends in edges.items():
            if f not in kept:
                vec = peeling.solve({eq: _mul(ONE, c, -1) for eq, c in ends})
                vec[f] = ONE
                basis.append(vec)
    else:
        # one potential per balanced component, free at its last variable
        basis = _forest_walk(kept, nodes, rejected=rejected)[::-1]
    basis = tuple(_vector_object(op, vec) for vec in basis)
    return SolveReport(op.name, window, "kernel-basis", nullity=len(basis), basis=basis)


def coboundary_solve(target, operator: str, window: int) -> SolveReport:
    """Exact membership of target in the image of a windowed differential.

    The target support must keep a margin of 2 from the window edge.  On
    failure the report carries an equation-combination certificate, checked
    against the original equations before being returned.
    """
    op = _get_operator(operator)
    if window < 3:
        raise ValueError("window radius must be at least 3")
    kind = LatticeFunctional if op.stencil.out_slots == 1 else CochainPair
    parts = cochain_slots(target)
    if not isinstance(target, kind) or not all(isinstance(p, LatticeFunctional) for p in parts):
        raise TypeError(f"{op.name} needs a {kind.__name__} target")
    sites = [s for part in parts for s in part.terms]
    if any(abs(n) > window - 2 or abs(m) > window - 2 for n, m in sites):
        raise ValueError("target support must stay 2 sites clear of the window edge")

    block = _target_block(op, window, parts)
    eqs = sorted(block, key=_eq_order)
    rows = {eq: block[eq] for eq in eqs}
    rhs = {(slot, s): c for slot, part in enumerate(parts) for s, c in part.terms.items()}
    variables = sorted({k for coeffs in rows.values() for k in coeffs}, key=_var_order)
    column_side = _column_side(op)
    nodes, edges = _graph(column_side, rows, variables)
    frame = _Frame()
    kept = {key: ends for key, ends in edges.items() if frame.add(ends)}

    certificate = None
    if column_side:
        # a balanced component's potential is its one combination with a zero
        # left side; the walk yields them from the last equation backwards,
        # so the last inconsistent one met is the first by last equation
        rejected = [ends for key, ends in edges.items() if len(ends) == 2 and key not in kept]
        for p in _forest_walk(kept, nodes, rejected=rejected):
            if sum((p[eq] * r for eq, r in rhs.items() if eq in p), ZERO):
                certificate = p
        if certificate is None:
            vec = _Peeling(kept).solve(rhs)
    else:
        vec = {k: c for tree in _forest_walk(kept, nodes, rhs) for k, c in tree.items()}
        for eq in eqs:
            if eq in kept:
                continue
            left = sum((_mul(vec[k], c) for k, c in edges[eq] if k in vec), ZERO)
            if left != rhs.get(eq, ZERO):
                # the equation's fundamental circuit through the kept ones
                certificate = _Peeling(kept).solve({k: _mul(ONE, c, -1) for k, c in edges[eq]})
                certificate[eq] = ONE
                break

    if certificate is not None:
        lhs: dict[VarKey, Scalar] = {}
        total = ZERO
        for (slot, (n, m)), mult in certificate.items():
            # the original equations, read off the table through coefficient
            for o, in_slot, dn, dm, terms in op.stencil.entries:
                k = (in_slot, (n + dn, m + dm))
                if o == slot and _inside(k[1], window):
                    lhs[k] = lhs.get(k, ZERO) + coefficient(terms, n, m, mult)
            b = parts[slot].coeff(n, m)
            if b:
                total = total + mult * b
        if any(lhs.values()) or not total:
            raise RuntimeError("the gain-graph solve produced an invalid certificate")
        certificate = tuple((eq, certificate[eq]) for eq in eqs if certificate.get(eq))
        return SolveReport(op.name, window, "unsolvable", certificate=certificate)

    witness = _vector_object(op, vec)
    residual = op.apply(witness) - target
    if not residual.is_zero():
        raise RuntimeError("the gain-graph solve produced an invalid witness")
    return SolveReport(
        operator=op.name, window=window, status="solved", witness=witness, residual=residual
    )


# ---------------------------------------------------------------------------
# constructive solver for the twisted degree-1 vanishing


def _one_row(f: LatticeFunctional, s0: int, window: int, what: str) -> dict[int, Scalar]:
    if not isinstance(f, LatticeFunctional):
        raise TypeError(f"{what} must be a finite LatticeFunctional")
    if abs(s0) > window:
        raise ValueError(f"{what} y={s0} lies outside the window |y| <= {window}")
    row: dict[int, Scalar] = {}
    for (n, m), c in f.terms.items():
        if m != s0:
            raise ValueError(f"{what} must be supported on the single row y={s0}")
        if abs(n) > window:
            raise ValueError(f"{what} support exceeds the window")
        row[n] = c
    return row


def _line_walk(h: dict[int, Scalar], s0: int, window: int) -> dict[int, Scalar]:
    """gamma with gamma[n+1] - lambda**s0 gamma[n-1] = h[n] at every
    |n| <= window-1 of a row h = {n: h[n]} at y=s0, gamma = {n: gamma[n]}.

    Each parity chain is walked upwards from its lowest support site n, with
    gamma[n-1] = 0, to the window edge, stopping early once past its highest
    support site with a zero carry.  The kernel generators are nowhere zero,
    so a finitely supported row has at most one finitely supported
    preimage; when it has one the walk returns it."""
    gamma: dict[int, Scalar] = {}
    for parity in (0, 1):
        chain = [n for n in h if n % 2 == parity]
        if not chain:
            continue
        n, hi = min(chain), max(chain)
        carry = ZERO
        while n <= window - 1 and (carry or n <= hi):
            carry = h.get(n, ZERO) + carry.shift(2 * s0)
            if carry:
                gamma[n + 1] = carry
            n += 2
    return gamma


def line_eliminate(row: LatticeFunctional, s0: int, window: int) -> LatticeFunctional:
    """Degree-0 cochain gamma on row s0 whose twisted differential's first
    component reproduces the given row at every site |n| <= window-1.

    Solves gamma[n+1] - lambda**s0 gamma[n-1] = h[n] per parity chain,
    walking upwards from the chain's lowest support site n with the gauge
    gamma[n-1] = 0.  When the row is the first component of twisted_alpha1
    of a finitely supported cochain on the row, gamma is that cochain;
    otherwise the geometric tail runs upwards only and is truncated at
    n = window.

    >>> from ncgeo.cochains import twisted_alpha1
    >>> phi = LatticeFunctional.delta(-2, 1) + LatticeFunctional.delta(3, 1, 5)
    >>> line_eliminate(twisted_alpha1(phi).first, 1, 5) == phi
    True
    >>> line_eliminate(LatticeFunctional.delta(0, 1), 1, 5).support()
    [(1, 1), (3, 1), (5, 1)]
    """
    if window < 2:
        raise ValueError("window radius must be at least 2")
    h = _one_row(row, s0, window, "line_eliminate row")
    return LatticeFunctional._of({(n, s0): c for n, c in _line_walk(h, s0, window).items()})


def _check_recurrence(h: dict[int, Scalar], s0: int, window: int) -> None:
    """Reject a row h = {n: eta[n]} at y=s0 that fails
    eta[w+1] = lambda**(s0-1) eta[w-1] at some |w| <= window-1."""
    for w in range(-window + 1, window):
        if h.get(w + 1, ZERO) != (h[w - 1].shift(2 * s0 - 2) if w - 1 in h else ZERO):
            raise RecurrenceViolation(
                (w, s0),
                f"row fails eta[w+1] = lambda^(s0-1) eta[w-1] at w={w}, y={s0}",
            )


def _absorb(
    rows: dict[int, dict[int, Scalar]], direction: str, window: int
) -> dict[Site, Scalar]:
    """Degree-0 cochain rho whose twisted differential's second component is
    the given rows {y: {n: eta[n]}} (first component zero) at all interior
    sites, as one carry sweep per parity chain of rows:

        below:  rho_r[n] = lambda**-n rho_{r+2}[n] - eta_{r+1}[n],  r down to -window
        above:  rho_r[n] = lambda**n (rho_{r-2}[n] + eta_{r-1}[n]),  r up to window

    The sweep starts next to the first source row, stops at the window edge
    and jumps to the next source row whenever the carry cancels to zero.
    """
    below = direction == "below"
    step = -2 if below else 2
    rho: dict[Site, Scalar] = {}
    for parity in (0, 1):
        todo = sorted((s for s in rows if s % 2 == parity), reverse=not below)
        carry: dict[int, Scalar] = {}
        r = 0
        while todo or carry:
            if not carry:
                r = todo[-1] + step // 2
            if abs(r) > window:
                break
            h = rows[todo.pop()] if todo and todo[-1] == r - step // 2 else {}
            if below:
                nxt = {n: c.shift(-2 * n) for n, c in carry.items()}
                for n, c in h.items():
                    nxt[n] = nxt[n] - c if n in nxt else -c
            else:
                nxt = dict(carry)
                for n, c in h.items():
                    nxt[n] = nxt[n] + c if n in nxt else c
                nxt = {n: c.shift(2 * n) for n, c in nxt.items() if c}
            carry = {n: c for n, c in nxt.items() if c}
            for n, c in carry.items():
                rho[(n, r)] = c
            r += step
    return rho


def row_solve(
    eta: LatticeFunctional, s0: int, direction: str, window: int
) -> LatticeFunctional:
    """Degree-0 cochain rho whose twisted differential is exactly the single
    row eta at y=s0 (second component; first component zero) at all interior
    sites, supported on the rows of the other parity below or above s0.

    Requires |s0| <= window and eta[w+1] = lambda**(s0-1) eta[w-1] at every
    |w| <= window-1; a violation is rejected with the offending site.  rho is
    the telescoping sweep of _absorb: rho[n, s0-1] = -eta[n],
    rho[n, r-2] = lambda**-n rho[n, r] below (rho[n, s0+1] = lambda**n eta[n],
    rho[n, r+2] = lambda**n rho[n, r] above), over the rows |y| <= window.
    """
    if window < 2:
        raise ValueError("window radius must be at least 2")
    if direction not in ("below", "above"):
        raise ValueError("direction must be 'below' or 'above'")
    h = _one_row(eta, s0, window, "row_solve row")
    _check_recurrence(h, s0, window)
    return LatticeFunctional._of(_absorb({s0: h}, direction, window))


def _lines(terms: dict[Site, Scalar]) -> dict[int, dict[int, Scalar]]:
    """The nonzero terms of a coefficient map, grouped by row: {y: {n: c}}."""
    rows: dict[int, dict[int, Scalar]] = {}
    for (n, m), c in terms.items():
        if c:
            rows.setdefault(m, {})[n] = c
    return rows


def _gap(
    want: LatticeFunctional, got: LatticeFunctional, rn: int, rm: int
) -> dict[Site, Scalar]:
    """The nonzero values of want - got on the box |n| <= rn, |m| <= rm.
    Stored coefficients are nonzero, so a site of got alone gives -got."""
    gap = {}
    w, g = want.terms, got.terms
    for site, a in w.items():
        n, m = site
        if abs(n) <= rn and abs(m) <= rm:
            b = g.get(site, ZERO)
            if a != b:
                gap[site] = a - b
    for site, b in g.items():
        n, m = site
        if site not in w and abs(n) <= rn and abs(m) <= rm:
            gap[site] = -b
    return gap


def _gaps(pair: CochainPair, out: CochainPair, window: int):
    """E = pair - out where twisted_alpha2 reads it at the interior sites:
    E.first on the band |n| <= window-1, |m| <= window and E.second on the
    window, the leftover that phase 2 absorbs."""
    return (
        _gap(pair.first, out.first, window - 1, window),
        _gap(pair.second, out.second, window, window),
    )


def h1_trivialize(pair: CochainPair, window: int) -> SolveReport:
    """Constructive trivialization of a windowed twisted 1-cocycle.

    Phase 1 cancels every first-component row with the walk of
    line_eliminate, upwards from the low end of each parity chain; phase 2
    checks each surviving second-component row's recurrence as row_solve
    does and absorbs the rows at y >= 0 in one sweep below and those at
    y < 0 in one sweep above (_absorb), down to y = -window and up to
    y = window.  The returned witness psi satisfies twisted_alpha1(psi) =
    pair exactly at all sites with |n|, |m| <= window-1; the report's
    residual is that restriction.

    A pair that is not a windowed cocycle raises NotACocycle at the
    smallest interior site where twisted_alpha2(pair) is nonzero.  That
    check is derived from the re-check when no row survives phase 1 and
    twisted_alpha1(gamma).first equals pair.first on the band |n| <=
    window-1, |m| <= window, one row wider than the residual: then
    twisted_alpha2(pair), which is twisted_alpha2 of pair -
    twisted_alpha1(gamma), vanishes at every interior site.  Otherwise
    twisted_alpha2(pair) is applied explicitly, before phase 2 checks any
    row recurrence.

    When pair is twisted_alpha1(phi) inside the window for a finitely
    supported phi, phase 1 returns phi row by row, nothing survives it, and
    the witness is phi itself:

    >>> from ncgeo.cochains import twisted_alpha1
    >>> phi = LatticeFunctional.delta(0, 0) + LatticeFunctional.delta(-3, 2, 4)
    >>> h1_trivialize(twisted_alpha1(phi), 4).witness == phi
    True
    """
    if window < 3:
        raise ValueError("window radius must be at least 3")
    if not isinstance(pair, CochainPair) or not all(
        isinstance(p, LatticeFunctional) for p in cochain_slots(pair)
    ):
        raise TypeError("h1_trivialize needs a finite CochainPair")
    for f in (pair.first, pair.second):
        if any(abs(n) > window or abs(m) > window for n, m in f.terms):
            raise ValueError("pair support exceeds the window")
    # phase 1; gamma's rows are disjoint
    acc: dict[Site, Scalar] = {}
    for s0, h in _lines(pair.first.terms).items():
        for n, c in _line_walk(h, s0, window).items():
            acc[(n, s0)] = c
    # psi = gamma until a row survives: its image gives the leftover, the
    # cocycle check and, when none survives, the re-check
    psi = LatticeFunctional._of(acc)
    out = twisted_alpha1(psi)
    band, leftover = _gaps(pair, out, window)
    # twisted_alpha2(pair) = twisted_alpha2(pair - out) as out is a finite
    # coboundary, and at the interior sites it reads pair - out on the band
    # and the window alone: when both gaps are empty, the pair is a cocycle
    if band or leftover:
        site = _violations(twisted_alpha2(pair), window)
        if site is not None:
            raise NotACocycle(site)

    rows = _lines(leftover)
    if rows:
        for s0 in sorted(rows):
            _check_recurrence(rows[s0], s0, window)
        below = {s0: h for s0, h in rows.items() if s0 >= 0}
        above = {s0: h for s0, h in rows.items() if s0 < 0}
        for part in (_absorb(below, "below", window), _absorb(above, "above", window)):
            for site, c in part.items():
                acc[site] = acc[site] + c if site in acc else c
        psi = LatticeFunctional._of(acc)
        out = twisted_alpha1(psi)
        band, leftover = _gaps(pair, out, window)
    # the residual out - pair at |n|, |m| <= window-1, read off the gaps
    inner = [
        {(n, m): -c for (n, m), c in gap.items() if abs(n) < window and abs(m) < window}
        for gap in (band, leftover)
    ]
    residual = CochainPair(*map(LatticeFunctional._of, inner))
    if not residual.is_zero():
        raise RuntimeError("trivialization left a nonzero interior residual")
    return SolveReport(
        operator="twisted_alpha1",
        window=window,
        status="solved",
        witness=psi,
        residual=residual,
    )
