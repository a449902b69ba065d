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
stencil table (`Operator`): the equations are the nodes and the variables
the edges on the column side (twisted_alpha2, alpha1, alpha2), and the other
way round on the row side (twisted_alpha1).  An edge with one nonzero is a
half-edge.  Every nonzero coefficient is invertible, so a connected
component either is balanced, carrying a potential p, unique up to scale,
with p[u] a + p[v] b = 0 along every edge ((u, a), (v, b)), or it is not,
and then its edges span every coordinate of its nodes: the frame matroid of
the gain graph (Zaslavsky, "Biased graphs II", JCTB 51, 1991).

No cycle of these graphs is unbalanced (the solver tests check the tables):

* on the row side, D_ij = u^(nm - ij) (`make_D`) balances every equation
  edge of twisted_alpha1;
* on the column side, y_ij = u^(n - m - nm) balances every variable edge of
  twisted_alpha2;
* each alpha1 equation holds one variable, so its graph is a matching;
* each alpha2 variable is read by one entry, so its edges are half-edges;
* windowing only drops ends: a two-ended windowed edge has its lattice gains.

Variables are ordered by (|n|+|m|, n, m), then slot (the pivot order), and
equations by slot, then site.  Each has a dense integer id (_ids): a
variable (slot, (n, m)) of window W is ((n + W)(2W + 1) + m + W) in_slots +
slot, an equation the same with out_slots on the box of radius W + reach,
the largest stencil offset, where membership solves impose equations.  Right
sides and gain graphs are keyed by ids and decoded once per output (_keys).
Only what an output lists is sorted, by an integer key read off the id
(_order_key): a certificate's equations, and a kernel's or a witness's
variables.  An edge's ends are read off its side of the stencil's split
table by a reader made once per call (_ender): a variable's off its slot's
readers, an equation's off its rows.  A coefficient is held as its gain,
the entry's terms at the site as (sign, k) pairs for sign * u**k: one pair
for a twisted entry, two for an untwisted binomial.  A product or quotient
by one pair is one Scalar.shift.  A potential is held lazily as (x, k,
sign), sign * u**k * x, so a walk step x * (-a/b) between two one-pair
gains is integer arithmetic (_step), and a binomial is made a Scalar only
to divide.  The potentials come from one walk of the gain graph on either
side (_target_block), and every closing edge is checked on them as
canonical forms (_balanced).
Edge values need the greedy basis of the frame matroid in edge order.  As
no cycle is unbalanced, it is the spanning forest of least edge positions
of the graph with one ground node for the half-edges, which one Prim walk
grows (_Forest).

On the column side the greedy basis is exactly the set of pivot columns
Gauss-Jordan elimination takes in the pivot order: its pivot columns are the
lexicographically first column basis, whichever pivot rows it picks, and so
is the greedy basis of the column matroid, which is the frame matroid.  So
every output equals Gauss-Jordan's, byte for byte:

* kernel basis: for each non-basis variable f, in pivot order, x[f] = 1 and
  the basis values that solve the right side -A_f, its fundamental circuit;
* witness: the basis values that solve the target, every other variable 0;
* certificate: a balanced component's potential is its only combination of
  equations with a zero left side.  It is normalized to 1 at the component's
  last equation, the row left unused by Gauss-Jordan that pivots on the
  first unused row holding each variable: the unused rows of a balanced
  component always cancel with nonzero multipliers, so a variable held by
  one of them is held by two, and the last is never the first to hold it.
  Of the inconsistent components, the one whose last equation comes first
  is reported, as Gauss-Jordan's first bad row.  Pairing a potential with
  the right side is scale-invariant, so the lazy values decide, and only
  the reported one is made Scalars.

On the row side, which is for kernels only, the kernel basis is one
potential per balanced component, normalized to 1 at its last variable.  Any
other set of a component's variables is independent, so that variable is
Gauss-Jordan's free one, and the bases are equal.  The walk's nodes are then
the variables and its edges the full-stencil equations, and it starts from
every variable in descending pivot order, so it meets each component first
at its last variable, where the potential is 1.

Every witness is re-checked by one residual pass of the operator against
the target (`Stencil.residual`), and every certificate against the table's
original equations (_recheck), before it is returned or raised.  Both meet
one-term contributions by comparing canonical forms and build only what
does not cancel.

A membership solve sets up only the target's connected block: the equations
reached from the target's support, two equations being connected when both
hold some variable with a nonzero coefficient.  This cannot change an output:
an equation outside the block has a zero right side, so it yields neither a
witness entry nor an inconsistent component.  The block is one breadth-first
walk per component from the target's equations (_target_block), and it is
the solve's only walk: an equation's variables come off its rows' offsets,
and each new variable's ends, built once, are an edge and the next
equations.  The walk carries the potentials, 1 at the component's first
equation met; a refutation sorts its certificate's equations and takes the
last as the root, and a witness's forest grows each balanced component from
the first end of its first variable in pivot order.  No list of the window's
equations or variables is set up.  A kernel reads every variable, as the
nullity needs every block, and the full-stencil rule as bounds of the table
plan (_plan), so it lists no equations either.

The second half of the module implements the constructive proof that the
flip-twisted first cohomology vanishes, as the two phases of `h1_trivialize`:

* phase 1 cancels each row of the first component with a degree-0 cochain
  supported on that row, one ascending sweep over the row's sites that
  builds nothing where a carry cancels (_line_walk);
* phase 2 absorbs the leftover eta of the second component, read on |n| <=
  window, |m| <= window-1, on the rows of the other parity.  Each column of
  the answer obeys rho[n, m+1] = lambda**n (rho[n, m-1] + eta[n, m]), the
  two-step recurrence of a line, so it is one line walk upwards per column
  (_walk_rows, as in phase 1), up to y = window: the sum of the rows'
  closed forms.  Its first component vanishes at the interior sites
  because on a cocycle each row of eta obeys eta[w+1] = lambda**(y-1)
  eta[w-1] at |w|, |y| <= window-1, which is twisted_alpha2's interior
  equation there once the band is clear.

The re-check and the input's cocycle check are one residual pass, R =
twisted_alpha1(gamma) - pair, gamma being phase 1's cochain, which builds no
image (h1_trivialize).  As twisted_alpha2 after twisted_alpha1 is zero (the
solver tests check the tables), twisted_alpha2(pair) = -twisted_alpha2(R),
which at the interior sites |n|, |m| <= window-1 reads R.first on the band
|n| <= window-1, |m| <= window, one row wider than the reported residual,
and R.second on |n| <= window, |m| <= window-1, minus the leftover (_boxes).
The rows |y| = window of R.second are read by no interior equation, and
phase 2 never absorbs them.

The witness of twisted_alpha1(phi), for a finite phi inside the window, is
phi, its only finitely supported preimage.  An input with no finite
preimage gets the tails of the walks, fixed choices that change with the
window.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import chain
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
    twisted_alpha1,
    twisted_alpha2,
    _violations,
)
from .scalars import ONE, ZERO, Scalar, _cancels
from .torus import Site

class NotACocycle(ValueError):
    """h1_trivialize was given a pair outside the windowed kernel: at site,
    twisted_alpha2 of it is nonzero.  certificate, ((slot, site), multiplier)
    pairs as in SolveReport, is twisted_alpha2's row at site as four
    twisted_alpha1 equations: a zero left side on all of Z^2, and a right
    side twisted_alpha2(pair) at site."""

    def __init__(self, site: Site, certificate: tuple):
        super().__init__(f"twisted_alpha2 of the input is nonzero at {site}")
        self.site = site
        self.certificate = certificate


# ---------------------------------------------------------------------------
# named operators


@dataclass(frozen=True)
class Operator:
    """A named differential and its stencil.  Its orientation is the column
    side when every input slot is read by at most two entries, so that every
    column holds at most two nonzeros, else the row side, which is for
    kernels only: coboundary_solve refuses it."""

    name: str
    apply: Callable
    stencil: Stencil

    @property
    def column_side(self) -> bool:
        return all(len(r) <= 2 for r in self.stencil.readers)


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


def _check_window(window) -> None:
    """Refuse a window radius that is not an int or is below 3."""
    if type(window) is not int:
        raise TypeError(f"window must be an int, not {type(window).__name__}")
    if window < 3:
        raise ValueError("window radius must be at least 3")


def _ids(keys, radius: int, slots: int) -> list[int]:
    """The ids of keys (slot, (n, m)) on the box |n|, |m| <= radius."""
    span = 2 * radius + 1
    return [((n + radius) * span + m + radius) * slots + slot for slot, (n, m) in keys]


def _keys(ids, radius: int, slots: int) -> list:
    """The keys (slot, (n, m)) of ids on the box of the given radius."""
    span = 2 * radius + 1
    return [(i % slots, (i // slots // span - radius, i // slots % span - radius)) for i in ids]


def _vector_object(op: Operator, window: int, vec: dict[int, Scalar]):
    parts: list[dict[Site, Scalar]] = [{} for _ in range(op.stencil.in_slots)]
    for (slot, site), c in zip(_keys(vec, window, op.stencil.in_slots), vec.values()):
        parts[slot][site] = c
    return cochain_from_slots([LatticeFunctional._of(t) for t in parts])


# ---------------------------------------------------------------------------
# windowed systems


def _order_key(radius: int, slots: int, eq: bool) -> Callable[[int], int]:
    """The sort key of the ids of a box: an int in equation order (slot,
    then site) when eq, else in pivot order (site, then slot), sites by
    (|n|+|m|, n, m).  Ids already run by (n, m, slot), so a pivot key is the
    site's norm in whole boxes plus the id, and an equation key is the slot
    and the norm in whole site grids plus the site's index."""
    span = 2 * radius + 1
    cells = span * span
    if eq:
        def key(i: int) -> int:
            k, slot = divmod(i, slots)
            a, b = divmod(k, span)
            return (slot * span + abs(a - radius) + abs(b - radius)) * cells + k
    else:
        size = cells * slots
        def key(i: int) -> int:
            a, b = divmod(i // slots, span)
            return (abs(a - radius) + abs(b - radius)) * size + i
    return key


def _vanishes(terms, n: int, m: int) -> bool:
    """Is coefficient(terms, n, m) zero?  The tables hold one or two terms:
    one term never vanishes, and two vanish exactly where their exponents
    agree and their signs differ."""
    if len(terms) == 1:
        return False
    (s1, p1, q1, r1), (s2, p2, q2, r2) = terms
    return s1 != s2 and p1 * n + q1 * m + r1 == p2 * n + q2 * m + r2


def _plan(op: Operator, window: int, column_side: bool, interior: bool = False) -> tuple:
    """One side of the split table, read once per call: (slots, span,
    far_span, far_slots, plan), plan holding per slot one (offset, bounds,
    n, m, one, terms) per entry.  An id at (x, y) from its box's corner has
    its end at (x far_span + y) far_slots + offset, for the equation at
    (x + n, y + m), where one = (s, p, q, c) gives a one-term gain (s, px +
    qy + c).  Bounds admit an end for (x, y) in them: on the row side a
    variable inside the window, and on an interior column side a
    full-stencil equation, every input site its rows read lying in the
    window, which is the box the extremes of its slot's offsets leave.  A
    reachable column side has none, and works out no extremes."""
    st = op.stencil
    radius = window + st.reach
    # a variable's equations sit at minus its readers' offsets
    table, box, slots, far, far_slots, way = (
        (st.readers, window, st.in_slots, radius, st.out_slots, -1) if column_side
        else (st.rows, radius, st.out_slots, window, st.in_slots, 1)
    )
    # the extremes of the offsets from an end's site of the input sites it
    # needs in the window: a row-side end is the variable itself, and an
    # interior equation needs the sites of its slot's every row
    pads = (
        [(0, 0, 0, 0)] * st.in_slots if not column_side
        else [[f(e[k] for e in row) for k in (1, 2) for f in (min, max)] for row in st.rows] if interior
        else None
    )
    far_span, plan = 2 * far + 1, []
    for entries in table:
        row = []
        for o, dn, dm, terms in entries:
            a, b = way * dn - box, way * dm - box
            n, m = (a, b) if column_side else (-box, -box)
            bounds = None
            if pads:
                lo, hi, low, high = pads[o]
                bounds = (-window - lo - a, window - hi - a, -window - low - b, window - high - b)
            (s, p, q, r), *two = terms
            row.append((
                ((a + far) * far_span + b + far) * far_slots + o,
                bounds, n, m, None if two else (s, 2 * p, 2 * q, 2 * (p * n + q * m + r)), terms,
            ))
        plan.append(row)
    return slots, 2 * box + 1, far_span, far_slots, plan


def _ender(op: Operator, window: int, column_side: bool, interior: bool = False) -> Callable[[int], tuple]:
    """The reader of a gain-graph edge's ends (id, gain), ids keyed as in
    _ids, off its slot's side of the split table (_plan): on the column
    side a variable's equations, off its readers, the full-stencil ones
    alone when interior; on the row side an equation's variables inside
    the window, off its rows.  The gain is the entry's coefficient at the
    equation's site (_gain); an end whose coefficient vanishes is skipped."""
    slots, span, far_span, far_slots, plan = _plan(op, window, column_side, interior)

    def ends(i: int) -> tuple:
        k, slot = divmod(i, slots)
        x, y = divmod(k, span)
        base, out = (x * far_span + y) * far_slots, []
        for off, bounds, n, m, one, terms in plan[slot]:
            e = base + off
            if bounds and not (bounds[0] <= x <= bounds[1] and bounds[2] <= y <= bounds[3]):
                continue
            if one:
                s, p, q, c = one
                out.append((e, ((s, p * x + q * y + c),)))
            elif not _vanishes(terms, x + n, y + m):
                out.append((e, _gain(terms, x + n, y + m)))
        return tuple(out)

    return ends


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


def _step(p: tuple, a, b) -> tuple:
    """The potential across an edge ((u, a), (v, b)), p[v] = p[u] * -a/b,
    each held lazily as (x, k, sign) for sign * u**k * x: integer arithmetic
    between two one-pair gains, one Scalar made for a binomial."""
    x, k, s = p
    if len(a) == 1 == len(b):
        (sa, ka), (sb, kb) = a[0], b[0]
        return x, k + ka - kb, -s * sa * sb
    return _div(_mul(_value(p), a, -1), b), 0, 1


def _value(p: tuple) -> Scalar:
    """A lazy potential (x, k, sign) as one Scalar, x itself when k and sign
    leave it."""
    x, k, s = p
    return x if k == 0 and s == 1 else x.shift(k, s)


def _balanced(p: dict, closing: list) -> None:
    """Check that every closing edge ((u, a), (v, b)) of a component holds on
    its lazy potentials p, the step from u landing on p[v], compared as
    canonical forms (_cancels): else the gain graph has an unbalanced
    cycle."""
    for (u, a), (v, b) in closing:
        (x, i, s), (y, j, t) = _step(p[u], a, b), p[v]
        if not _cancels(x, i, s, y, j, -t):
            raise RuntimeError("the gain graph has an unbalanced cycle")


def _target_block(op: Operator, window: int, starts) -> tuple[dict[int, tuple], list[dict]]:
    """The gain graph of the nodes connected to the ids starts, as {edge:
    ends}, and its balanced components, each as its lazy potentials (_step),
    1 at the start it was met from.  On the column side the nodes are the
    equations and the edges the variables, two equations being connected
    when both hold a variable with a nonzero coefficient; on the row side,
    which serves kernels only, the nodes are the variables and the edges the
    full-stencil equations.  One breadth-first walk per component: a node's
    edges come off its offsets in the other side's plan (_plan), interior on
    the row side, with no gain, and each new one whose coefficient there
    does not vanish gets its ends once (_ender), a tree step, a closing edge
    or a half-edge.  A component without a half-edge has its closing edges
    checked (_balanced)."""
    column_side = op.column_side
    slots, span, far_span, far_slots, plan = _plan(op, window, not column_side, not column_side)
    read = _ender(op, window, column_side)
    edges, balanced, seen = {}, [], set()
    for start in starts:
        if start in seen:
            continue
        p, queue, closing, full = {start: (ONE, 0, 1)}, [start], [], False
        for u in queue:
            k, slot = divmod(u, slots)
            x, y = divmod(k, span)
            base, here = (x * far_span + y) * far_slots, p[u]
            for off, bounds, n, m, one, terms in plan[slot]:
                e = base + off
                if (bounds and not (bounds[0] <= x <= bounds[1] and bounds[2] <= y <= bounds[3])
                        or e in edges or not one and _vanishes(terms, x + n, y + m)):
                    continue
                edges[e] = ends = read(e)
                if len(ends) == 1:
                    full = True
                    continue
                end, far = ends if ends[0][0] == u else ends[::-1]
                if far[0] in p:
                    closing.append((end, far))
                else:
                    p[far[0]] = _step(here, end[1], far[1])
                    queue.append(far[0])
        seen.update(p)
        if not full:
            _balanced(p, closing)
            balanced.append(p)
    return edges, balanced


class _Forest:
    """The greedy basis (kept) of a gain graph's frame matroid in edge order,
    grown as a forest (steps) by one Prim walk (Prim, Bell Syst. Tech. J.
    36, 1957): from the ground, then from each node not yet reached in the
    order its edges first meet it, so a balanced component's root is the
    first end of its first two-ended edge.  An edge is a tuple of (node,
    gain) ends: two, one (a half-edge, to the ground) or none (never kept).  A step
    (edge, node, gain at the node, the end it was reached from, None for a
    half-edge) is one kept edge; each node is reached from an earlier one or
    a root, so walked backwards, from the leaves, the steps give edge
    values: witnesses and fundamental circuits.  Distinct edge positions
    make the least forest unique, so the roots change neither it nor its
    values."""

    __slots__ = ("steps", "kept")

    def __init__(self, edges: dict):
        keys, ends = list(edges), list(edges.values())
        ground, incident = [], {}
        for pos, e in enumerate(ends):
            if len(e) == 1:
                ground.append(pos)
            else:
                for v, _ in e:
                    incident.setdefault(v, []).append(pos)
        self.steps = steps = []
        seen: set = set()

        def grow(heap):
            # a list in position order is a heap already
            while heap:
                pos = heappop(heap)
                e = ends[pos]
                end, far = (None, e[0]) if len(e) == 1 else e if e[0][0] in seen else e[::-1]
                v = far[0]
                if v in seen:
                    continue
                seen.add(v)
                steps.append((keys[pos], v, far[1], end))
                for q in incident.get(v, ()):
                    a, b = ends[q]
                    if (b if a[0] == v else a)[0] not in seen:
                        heappush(heap, q)

        grow(ground)
        for root, heap in incident.items():
            if root not in seen:
                seen.add(root)
                grow(heap)
        self.kept = {step[0] for step in steps}

    def edge_values(self, rhs: dict) -> dict:
        """The nonzero x with sum_e x[e] A_e = rhs, A_e holding the gains at
        the ends of e.  What is left at a balanced root must cancel, as on a
        consistent system; for a circuit it is -(p[u] a + p[v] b) at its
        closing edge ((u, a), (v, b)), p the potential 1 at the root."""
        r = dict(rhs)
        x = {}
        for key, v, b, end in reversed(self.steps):
            val = r.pop(v, None)
            if not val:
                continue
            x[key] = val = _div(val, b)
            if end is not None:
                u, a = end
                t = _mul(val, a, -1)
                r[u] = r[u] + t if u in r else t
        if any(r.values()):
            raise RuntimeError("the right side does not cancel at a balanced root")
        return x

    def circuit(self, key, ends) -> dict:
        """The fundamental circuit of a rejected edge: its one combination
        with the kept edges whose sum is zero, 1 at the edge, which is its
        own circuit when it has no ends."""
        x = self.edge_values({node: _mul(ONE, c, -1) for node, c in ends})
        x[key] = ONE
        return x


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
    _check_window(window)
    in_slots = op.stencil.in_slots
    pivot_order = _order_key(window, in_slots, False)
    variables = sorted(range((2 * window + 1) ** 2 * in_slots), key=pivot_order)
    if op.column_side:
        read = _ender(op, window, True, True)
        edges = {v: read(v) for v in variables}
        forest = _Forest(edges)
        basis = [forest.circuit(f, ends) for f, ends in edges.items() if f not in forest.kept]
    else:
        # one potential per balanced component, walked from its last
        # variable, which is free
        _, balanced = _target_block(op, window, variables[::-1])
        basis = [{v: _value(q) for v, q in p.items()} for p in balanced[::-1]]
    basis = tuple(_vector_object(op, window, vec) for vec in basis)
    return SolveReport(op.name, window, "kernel-basis", nullity=len(basis), basis=basis)


def _recheck(op: Operator, radius: int, certificate, parts) -> None:
    """Check a certificate, ((slot, site), multiplier) pairs, on op's table:
    the equations' sum cancels at every input site of the box of the given
    radius, and the target's, by slots (parts), not.  A table term's
    contribution sign * u**k * mult is held as (mult, k, sign) and met by the
    next at its site, the two compared as canonical forms (_cancels): the
    site is dropped when they cancel.  What does not cancel is built and
    summed; a held contribution is lone, and nonzero."""
    lhs: dict = {}
    total = ZERO
    for (slot, (n, m)), mult in certificate:
        b = parts[slot].coeff(n, m)
        if b:
            total = total + mult * b
        for in_slot, dn, dm, terms in op.stencil.rows[slot] if mult else ():
            k = (in_slot, n + dn, m + dm)
            if abs(k[1]) > radius or abs(k[2]) > radius:
                continue
            for s, p, q, r in terms:
                j, prev = 2 * (p * n + q * m + r), lhs.pop(k, None)
                if prev is None:
                    lhs[k] = (mult, j, s)
                    continue
                if type(prev) is tuple:
                    x, i, t = prev
                    if _cancels(x, i, t, mult, j, s):
                        continue
                    prev = x.shift(i, t)
                lhs[k] = prev + mult.shift(j, s)
    if not total or any(type(v) is tuple or v for v in lhs.values()):
        raise RuntimeError(f"invalid {op.name} certificate")


def coboundary_solve(target, operator: str, window: int) -> SolveReport:
    """Exact membership of target in the image of a windowed differential.

    The target support must keep a margin of 2 from the window edge.  On
    failure the report carries an equation-combination certificate, checked
    against the original equations before being returned.  Only the column
    side is solved here: a preimage under twisted_alpha1 is h1_trivialize's.
    """
    op = _get_operator(operator)
    if not op.column_side:
        raise ValueError(f"coboundary_solve does not solve {op.name}; use h1_trivialize")
    _check_window(window)
    kind = LatticeFunctional if op.stencil.out_slots == 1 else CochainPair
    parts = cochain_slots(target)
    if not isinstance(target, kind) or not all(isinstance(p, LatticeFunctional) for p in parts):
        raise TypeError(f"{op.name} needs a {kind.__name__} target")
    sites = [s for part in parts for s in part.terms]
    if any(abs(n) > window - 2 or abs(m) > window - 2 for n, m in sites):
        raise ValueError("target support must stay 2 sites clear of the window edge")

    radius, slots = window + op.stencil.reach, op.stencil.out_slots
    goal = {(slot, s): c for slot, part in enumerate(parts) for s, c in part.terms.items()}
    rhs = dict(zip(_ids(goal, radius, slots), goal.values()))
    edges, balanced = _target_block(op, window, rhs)

    # a balanced component's potential is its one combination with a zero
    # left side; pairing it with the right side is scale-invariant, so the
    # lazy values decide, and the inconsistent one whose last equation comes
    # first is reported, 1 there
    order, bad = _order_key(radius, slots, True), []
    for p in balanced:
        total = ZERO
        for eq, r in rhs.items():
            if eq in p:
                x, k, s = p[eq]
                t = x._mul_shift(r, k)
                total = total + t if s == 1 else total - t
        if total:
            eqs = sorted(p, key=order)
            bad.append((order(eqs[-1]), eqs, p))
    if bad:
        _, eqs, p = min(bad)
        xr, kr, sr = p[eqs[-1]]
        certificate = tuple(zip(_keys(eqs, radius, slots), [
            _value((ONE if x is xr else x / xr, k - kr, s * sr)) for x, k, s in map(p.get, eqs)
        ]))
        _recheck(op, window, certificate, parts)
        return SolveReport(op.name, window, "unsolvable", certificate=certificate)

    # only a witness reads the forest, and so the pivot order of its edges
    pivot_order = _order_key(window, op.stencil.in_slots, False)
    forest = _Forest({v: edges[v] for v in sorted(edges, key=pivot_order)})
    witness = _vector_object(op, window, forest.edge_values(rhs))
    residual = cochain_from_slots(
        [LatticeFunctional._of(t) for t in op.stencil.residual(witness, target)]
    )
    if not residual.is_zero():
        raise RuntimeError("the gain-graph solve produced an invalid witness")
    return SolveReport(
        operator=op.name, window=window, status="solved", witness=witness, residual=residual
    )


# ---------------------------------------------------------------------------
# constructive solver for the twisted degree-1 vanishing


def _line_walk(h: dict[int, Scalar], s0: int, window: int) -> dict[int, Scalar]:
    """gamma with gamma[n+1] - lambda**s0 gamma[n-1] = h[n] at every
    |n| <= window-1 of a row h = {n: h[n]} at y=s0, gamma = {n: gamma[n]}.

    One ascending sweep over the sorted sites of h, with one carry
    gamma[n+1] per parity chain.  A chain starts at its lowest site n with
    gamma[n-1] = 0, so the carry is h[n].  Where h[n] + lambda**s0 carry
    cancels, the canonical forms say so (_cancels), nothing is built and the
    chain restarts at its next site; a nonzero carry runs up through the gap,
    and past the last site to the window edge.  The kernel generators are
    nowhere zero, so a finitely supported row has at most one finitely
    supported preimage; when it has one the sweep returns it."""
    gamma: dict[int, Scalar] = {}
    carry, at, k = [None, None], [0, 0], 2 * s0
    # window and window + 1 end the two chains
    for n in sorted(h) + [window, window + 1]:
        p = n & 1
        c = carry[p]
        if c is not None:
            for j in range(at[p] + 2, min(n, window), 2):
                c = gamma[j + 1] = c.shift(k)
        if n >= window or c is not None and _cancels(h[n], 0, 1, c, k, 1):
            carry[p] = None
        else:
            gamma[n + 1] = carry[p] = h[n] if c is None else h[n] + c.shift(k)
            at[p] = n
    return gamma


def _walk_rows(terms: dict[Site, Scalar], window: int) -> dict[Site, Scalar]:
    """The line walks of the rows of a coefficient map {(n, m): c}: gamma
    with gamma[n+1, m] - lambda**m gamma[n-1, m] = c[n, m] at every |n| <=
    window-1 of each row m that holds a term (_line_walk at s0 = m)."""
    rows: dict[int, dict[int, Scalar]] = {}
    for (n, m), c in terms.items():
        rows.setdefault(m, {})[n] = c
    return {(n, m): g for m, h in rows.items() for n, g in _line_walk(h, m, window).items()}


def _boxes(psi: LatticeFunctional, pair: CochainPair, window: int):
    """twisted_alpha1(psi) - pair, one residual pass, on the two boxes
    twisted_alpha2 reads at the interior sites: the band and minus the
    leftover."""
    first, second = TWISTED_ALPHA1.residual(psi, pair)
    return (
        {(n, m): c for (n, m), c in first.items() if abs(n) < window and abs(m) <= window},
        {(n, m): c for (n, m), c in second.items() if abs(n) <= window and abs(m) < window},
    )


def h1_trivialize(pair: CochainPair, window: int) -> SolveReport:
    """Constructive trivialization of a windowed twisted 1-cocycle.

    Phase 1 cancels every first-component row with a line walk, phase 2
    what is left of the second component on |n| <= window, |m| <= window-1
    with one line walk per column, up to y = window (_walk_rows).  The
    returned witness psi satisfies twisted_alpha1(psi) = pair exactly at
    all sites with |n|, |m| <= window-1; the report's residual is that
    restriction.

    Each pass reads the band and the leftover off one residual pass
    TWISTED_ALPHA1.residual(psi, pair), which is also the re-check.  A pair
    that is not a windowed cocycle raises NotACocycle at the smallest
    interior site in site order where twisted_alpha2(pair) is nonzero; it is
    the only check of the input's values.  When phase 1's residual vanishes
    on both boxes, twisted_alpha2(pair) = -twisted_alpha2(residual) vanishes
    at every interior site; otherwise it is applied, before phase 2.  The
    refusal's certificate, twisted_alpha2's row at the site as four
    twisted_alpha1 equations, holds on all of Z^2 and is re-checked before
    it is raised.

    When pair is twisted_alpha1(phi) inside the window for a finitely
    supported phi, phase 1 returns phi row by row, nothing survives it, and
    the witness is phi itself.  The carry at n is phi[n+1], which the
    chain's next site cancels wherever phi[n+3] = 0, building nothing:

    >>> from ncgeo.cochains import twisted_alpha1
    >>> phi = LatticeFunctional.delta(0, 0) + LatticeFunctional.delta(-3, 2, 4)
    >>> h1_trivialize(twisted_alpha1(phi), 4).witness == phi
    True
    """
    _check_window(window)
    if not isinstance(pair, CochainPair) or not all(
        isinstance(p, LatticeFunctional) for p in cochain_slots(pair)
    ):
        raise TypeError("h1_trivialize needs a finite CochainPair")
    # a plain loop in this frame: a generator frame per term costs more
    for n, m in chain(pair.first.terms, pair.second.terms):
        if abs(n) > window or abs(m) > window:
            raise ValueError("pair support exceeds the window")
    # phase 1; gamma's rows are disjoint
    acc = _walk_rows(pair.first.terms, window)
    # psi = gamma until a row survives: its residual gives the leftover, the
    # cocycle check and, when none survives, the re-check
    psi = LatticeFunctional._of(acc)
    band, leftover = _boxes(psi, pair, window)
    # twisted_alpha2(pair) = -twisted_alpha2(residual) as the image of psi is
    # a finite coboundary, and at the interior sites it reads the residual on
    # the two boxes alone: when both are empty, the pair is a cocycle
    if band or leftover:
        site = _violations(twisted_alpha2(pair), window)
        if site is not None:
            # twisted_alpha2's row at site; its equations read no site past window + 1
            n, m = site
            certificate = tuple(
                ((i, (n + dn, m + dm)), coefficient(terms, n, m))
                for _, i, dn, dm, terms in TWISTED_ALPHA2.entries
            )
            _recheck(OPERATORS["twisted_alpha1"], window + 1, certificate, cochain_slots(pair))
            raise NotACocycle(site, certificate)

    if leftover:
        # phase 2: rho[n, m+1] = lambda**n (rho[n, m-1] + eta[n, m]) on
        # column n is its line walk at s0 = n, run on the transposed map,
        # with eta = -leftover
        columns = {(m, n): c.shift(2 * n, -1) for (n, m), c in leftover.items()}
        for (m, n), c in _walk_rows(columns, window).items():
            acc[(n, m)] = acc[(n, m)] + c if (n, m) in acc else c
        psi = LatticeFunctional._of(acc)
        band, leftover = _boxes(psi, pair, window)
    # the residual at |n|, |m| <= window-1, read off the two boxes
    inner = [
        {(n, m): c for (n, m), c in box.items() if abs(n) < window and abs(m) < window}
        for box in (band, leftover)
    ]
    residual = CochainPair(*map(LatticeFunctional._of, inner))
    if not residual.is_zero():
        raise RuntimeError("trivialization left a nonzero interior residual")
    return SolveReport("twisted_alpha1", window, "solved", witness=psi, residual=residual)
