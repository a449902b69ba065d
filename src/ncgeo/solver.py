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

Variables are ordered by (|n|+|m|, n, m), then slot (the pivot order), and
equations by slot, then site.  One weighted union-find (_Frame) grows the
greedy basis of the frame matroid in edge order: it keeps an edge that joins
two components not both unbalanced, or that closes the first unbalanced cycle
or half-edge of a component.  One leaf-peeling solve (_Peeling) finds the
values on such a basis that meet a right side: it peels pendant edges, then
goes once around the one cycle a component may have left.

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
  last variable, 0 on a balanced component: Gauss-Jordan's witness again;
* certificate: the first equation, in equation order, that the greedy basis
  of the equations rejects and that the witness leaves unsatisfied.  Its
  fundamental circuit, the one combination of it and the kept equations
  with a zero left side, is found by peeling the transposed graph and is
  normalized to 1 at that equation.  This rule is the solver's own:
  Gauss-Jordan's certificate there depends on the pivot rows it picks.

Every witness is re-checked by applying the operator, and every certificate
against the table's original equations, before it is returned.

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
  cochain supported on that row, walking outward in both directions from
  the gauge choice gamma[0] = gamma[1] = 0;
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

Witnesses are not canonical: the gauge above and the walk directions are
fixed choices among many, and different windows give different tails.
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
    kernel_check_twisted_deg1,
    site_key,
    twisted_alpha1,
    twisted_alpha2,
)
from .scalars import ONE, ZERO, Scalar, lambda_pow
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
    return cochain_from_slots([LatticeFunctional(t) for t in parts])


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
    vanishes at that site."""
    entries = op.stencil.entries
    reach = window + max(max(abs(dn), abs(dm)) for _, _, dn, dm, _ in entries)
    out = []
    for slot in range(op.stencil.out_slots):
        offsets = [(dn, dm) for o, _, dn, dm, _ in entries if o == slot]
        for n in range(-reach, reach + 1):
            for m in range(-reach, reach + 1):
                if all(_inside((n + dn, m + dm), window) for dn, dm in offsets):
                    out.append((slot, (n, m)))
    out.sort(key=_eq_order)
    return out


class _Row:
    __slots__ = ("coeffs", "rhs")

    def __init__(self, coeffs, rhs):
        self.coeffs = coeffs
        self.rhs = rhs


def _row(op: Operator, window: int, eq: EqKey, goal=None) -> _Row:
    """The row of equation eq read off the stencil table, without zero
    coefficients or variables outside the window.  A target's row (goal: its
    slots) carries its right side; a kernel row's is zero."""
    slot, (n, m) = eq
    coeffs = {}
    for o, in_slot, dn, dm, coeff in op.stencil.entries:
        site = (n + dn, m + dm)
        if o == slot and _inside(site, window):
            c = coeff(n, m)
            if c:
                coeffs[(in_slot, site)] = c
    return _Row(coeffs, ZERO if goal is None else goal[slot].coeff(n, m))


def _target_block(op: Operator, window: int, goal) -> dict[EqKey, _Row]:
    """Rows of the equations connected to the support of the target, given
    by its slots (goal), keyed by equation.  Two rows are connected when both
    hold a variable with a nonzero coefficient; a variable's equations are
    found by reading the stencil offsets backwards, so only the block's sites
    are ever visited."""
    readers = [
        [(o, dn, dm, coeff) for o, s, dn, dm, coeff in op.stencil.entries if s == slot]
        for slot in range(op.stencil.in_slots)
    ]
    todo = [(slot, s) for slot, part in enumerate(goal) for s in part.terms]
    block: dict[EqKey, _Row] = {}
    seen: set[VarKey] = set()
    while todo:
        eq = todo.pop()
        if eq in block:
            continue
        block[eq] = row = _row(op, window, eq, goal)
        for k in row.coeffs.keys() - seen:
            seen.add(k)
            in_slot, (a, b) = k
            for o, dn, dm, coeff in readers[in_slot]:
                n, m = a - dn, b - dm
                if coeff(n, m):
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

    An edge is a tuple of (node, coefficient) ends: two, one (a half-edge)
    or none.  This is a weighted union-find: weight[x] = p[x] / p[parent[x]]
    for a potential p of x's component, that is p[u] a + p[v] b = 0 along
    every kept edge ((u, a), (v, b)).  A component in `full` has taken an
    unbalanced cycle or a half-edge: its kept edges span every coordinate of
    its nodes, and it has no potential.  The other components are balanced.
    """

    __slots__ = ("parent", "weight", "size", "full")

    def __init__(self):
        self.parent = {}
        self.weight = {}
        self.size = {}
        self.full = set()

    def find(self, x):
        """(root of x, p[x] / p[root]), compressing the path."""
        parent, weight = self.parent, self.weight
        path = []
        up = parent.setdefault(x, x)
        while up != x:
            path.append(x)
            x, up = up, parent[up]
        if not path:
            return x, ONE
        w = self._weight(path[-1])
        for y in reversed(path[:-1]):
            w = self._weight(y) * w
            weight[y] = w
            parent[y] = x
        return x, w

    def _weight(self, y):
        # a merge stores the pair (pa, pb); the ratio -pa / pb is divided
        # out on first use, so a link that no later edge reads costs nothing
        w = self.weight[y]
        if type(w) is tuple:
            w = self.weight[y] = -(w[0] / w[1])
        return w

    def add(self, ends) -> bool:
        """Offer the next edge; True when the greedy basis keeps it."""
        if len(ends) != 2:
            if not ends:
                return False
            root = self.find(ends[0][0])[0]
            if root in self.full:
                return False
            self.full.add(root)
            return True
        (u, a), (v, b) = ends
        ru, wu = self.find(u)
        rv, wv = self.find(v)
        full = self.full
        if ru in full and rv in full:
            return False
        pa = a if wu is ONE else wu * a
        pb = b if wv is ONE else wv * b
        if ru == rv:
            # the edge closes a cycle of a balanced component
            if pa == -pb:
                return False
            full.add(ru)
            return True
        size = self.size
        if size.get(ru, 1) < size.get(rv, 1):
            ru, rv, pa, pb = rv, ru, pb, pa
        self.parent[rv] = ru
        self.weight[rv] = (pa, pb)
        size[ru] = size.get(ru, 1) + size.get(rv, 1)
        if rv in full:
            full.add(ru)
        return True

    def balanced(self, nodes) -> list[list]:
        """The balanced components met by nodes, in the order of their first
        node: each a list of (node, p[node] / p[root]) in the order given."""
        groups: dict = {}
        for x in nodes:
            root, w = self.find(x)
            if root not in self.full:
                groups.setdefault(root, []).append((x, w))
        return list(groups.values())


def _normalized(group) -> dict:
    """A balanced component's potential, scaled to 1 at its last node."""
    inv = group[-1][1].inv()
    return {x: w * inv for x, w in group}


class _Peeling:
    """Values x on the edges of a frame-matroid basis with
    sum_e x[e] A_e = rhs, where A_e holds the ends of e.

    Pendant edges are peeled first, each fixed by its leaf, in an order
    computed once; every component is then empty or one cycle, solved in
    one pass around it with each value written alpha + beta * s in the value
    s of its first edge.  A balanced component keeps one node unpeeled, where
    the right side cancels whenever the system is consistent.
    """

    __slots__ = ("steps", "cycles")

    def __init__(self, edges: dict):
        incident: dict = {}
        for key, ends in edges.items():
            for node, _ in ends:
                incident.setdefault(node, []).append(key)
        degree = {node: len(keys) for node, keys in incident.items()}
        done = set()
        # (edge, leaf, coefficient at the leaf, the other ends)
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
        # (edge, node it leaves, coefficient there, node it enters, coefficient there)
        self.cycles = []
        for u, k in degree.items():
            if k != 2:
                continue
            cycle = []
            key = next(k for k in incident[u] if k not in done)
            while key is not None:
                done.add(key)
                degree[u] = 0
                (x, cx), (y, cy) = edges[key]
                if x != u:
                    (x, cx), (y, cy) = (y, cy), (x, cx)
                cycle.append((key, x, cx, y, cy))
                u = y
                key = next((k for k in incident[u] if k not in done), None)
            self.cycles.append(cycle)

    def solve(self, rhs: dict) -> dict:
        r = dict(rhs)
        x = {}
        for key, u, c, rest in self.steps:
            val = r.pop(u, None)
            if not val:
                continue
            val = val / c
            x[key] = val
            for v, b in rest:
                r[v] = r[v] - b * val if v in r else -(b * val)
        for cycle in self.cycles:
            if not any(r.get(step[1]) for step in cycle):
                continue
            a, b = ZERO, ONE
            line = [(cycle[0][0], a, b)]
            for (_, _, _, u, cin), (key, _, cout, _, _) in zip(cycle, cycle[1:]):
                # cin * x[previous edge] + cout * x[key] = r[u]
                a = (r.get(u, ZERO) - cin * a) / cout
                b = -(cin * b) / cout
                line.append((key, a, b))
            cin, cout = cycle[-1][4], cycle[0][2]
            s = (r.get(cycle[0][1], ZERO) - cin * a) / (cin * b + cout)
            for key, a, b in line:
                val = a + b * s
                if val:
                    x[key] = val
        return x


def _graph(column_side: bool, rows: dict[EqKey, dict], variables: list[VarKey]):
    """The gain graph of a system: (nodes, {edge: ends}), both in order.
    rows maps every equation, in equation order, to its coefficients;
    variables lists every variable, in pivot order."""
    if not column_side:
        return variables, {eq: tuple(coeffs.items()) for eq, coeffs in rows.items()}
    columns: dict[VarKey, list] = {v: [] for v in variables}
    for eq, coeffs in rows.items():
        for k, c in coeffs.items():
            columns[k].append((eq, c))
    return list(rows), {v: tuple(ends) for v, ends in columns.items()}


def _forest_values(frame: _Frame, kept: dict, rhs: dict, nodes: list) -> dict:
    """Values on the nodes (row side: variables) that meet every kept edge
    (equation) a x[u] + b x[v] = rhs[edge].  Each component is walked from
    its last node; a balanced one sets that node to 0, an unbalanced one
    solves its one extra kept edge for it, every value carried as
    alpha + beta * s in the last node's value s."""
    incident: dict = {}
    for eq, ends in kept.items():
        for v, _ in ends:
            incident.setdefault(v, []).append(eq)
    x: dict = {}
    seen: set = set()
    for root in reversed(nodes):
        if root in seen:
            continue
        seen.add(root)
        # s is 0 on a balanced component, so beta is only carried on the others
        full = frame.find(root)[0] in frame.full
        alpha, beta = {root: ZERO}, {root: ONE}
        used: set = set()
        extra = None
        queue = [root]
        for u in queue:
            for eq in incident.get(u, ()):
                if eq in used:
                    continue
                used.add(eq)
                ends = kept[eq]
                if len(ends) == 2:
                    (p, a), (v, b) = ends if ends[0][0] == u else ends[::-1]
                    if v not in seen:
                        seen.add(v)
                        queue.append(v)
                        alpha[v] = (rhs.get(eq, ZERO) - a * alpha[p]) / b
                        if full:
                            beta[v] = -(a * beta[p]) / b
                        continue
                extra = eq
        s = ZERO
        if extra is not None:
            num, den = rhs.get(extra, ZERO), ZERO
            for v, c in kept[extra]:
                num = num - c * alpha[v]
                den = den + c * beta[v]
            s = num / den
        for v in queue:
            val = alpha[v] + beta[v] * s if s else alpha[v]
            if val:
                x[v] = val
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
    if window < 3:
        raise ValueError("window radius must be at least 3")
    column_side = _column_side(op)
    variables = _variables(op, window)
    rows = {eq: _row(op, window, eq).coeffs for eq in _equations(op, window)}
    nodes, edges = _graph(column_side, rows, variables)
    frame = _Frame()
    kept = {key: ends for key, ends in edges.items() if frame.add(ends)}
    if column_side:
        peeling = _Peeling(kept)
        basis = []
        for f, ends in edges.items():
            if f not in kept:
                vec = peeling.solve({eq: -c for eq, c in ends})
                vec[f] = ONE
                basis.append(vec)
    else:
        # one potential per balanced component, free at its last variable
        pos = {v: i for i, v in enumerate(nodes)}
        groups = sorted(frame.balanced(nodes), key=lambda g: pos[g[-1][0]])
        basis = [_normalized(g) for g in groups]
    return SolveReport(
        operator=op.name,
        window=window,
        status="kernel-basis",
        nullity=len(basis),
        basis=tuple(_vector_object(op, vec) for vec in basis),
    )


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
    rows = {eq: block[eq].coeffs for eq in eqs}
    rhs = {eq: block[eq].rhs for eq in eqs if block[eq].rhs}
    variables = sorted({k for coeffs in rows.values() for k in coeffs}, key=_var_order)
    column_side = _column_side(op)
    nodes, edges = _graph(column_side, rows, variables)
    frame = _Frame()
    kept = {key: ends for key, ends in edges.items() if frame.add(ends)}

    certificate = None
    if column_side:
        # a balanced component's potential is its one combination with a zero
        # left side; the first inconsistent one by last equation is reported
        pos = {eq: i for i, eq in enumerate(nodes)}
        bad = [
            g for g in frame.balanced(nodes)
            if sum((w * rhs[eq] for eq, w in g if eq in rhs), ZERO)
        ]
        if bad:
            certificate = _normalized(min(bad, key=lambda g: pos[g[-1][0]]))
        else:
            vec = _Peeling(kept).solve(rhs)
    else:
        vec = _forest_values(frame, kept, rhs, nodes)
        for eq in eqs:
            if eq in kept:
                continue
            left = sum((c * vec[k] for k, c in edges[eq] if k in vec), ZERO)
            if left != rhs.get(eq, ZERO):
                # the equation's fundamental circuit through the kept ones
                certificate = _Peeling(kept).solve({k: -c for k, c in edges[eq]})
                certificate[eq] = ONE
                break

    if certificate is not None:
        lhs: dict[VarKey, Scalar] = {}
        total = ZERO
        for eq, mult in certificate.items():
            # the table gives the original equations
            original = _row(op, window, eq, parts)
            for k, c in original.coeffs.items():
                nv = lhs.get(k, ZERO) + mult * c
                if nv:
                    lhs[k] = nv
                elif k in lhs:
                    del lhs[k]
            total = total + mult * original.rhs
        if lhs or not total:
            raise RuntimeError("the gain-graph solve produced an invalid certificate")
        return SolveReport(
            operator=op.name,
            window=window,
            status="unsolvable",
            certificate=tuple((eq, certificate[eq]) for eq in eqs if certificate.get(eq)),
        )

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


def line_eliminate(row: LatticeFunctional, s0: int, window: int) -> LatticeFunctional:
    """Degree-0 cochain gamma on row s0 whose twisted differential's first
    component reproduces the given row at every site |n| <= window-1.

    Solves gamma[n+1] - lambda**s0 gamma[n-1] = h[n] per parity chain with
    the gauge gamma[0] = gamma[1] = 0, walking left from n=0 / n=-1 and
    right from n=2 / n=1.  Walks stop early once past the support with a
    zero carry; otherwise the geometric tail is truncated at |n| = window.
    """
    if window < 2:
        raise ValueError("window radius must be at least 2")
    h = _one_row(row, s0, window, "line_eliminate row")
    gamma: dict[int, Scalar] = {}
    lo, hi = (min(h), max(h)) if h else (0, 0)
    lam_s0 = lambda_pow(s0)
    lam_inv = lambda_pow(-s0)
    for start in (0, -1):
        carry = ZERO
        n = start
        while n >= -window + 1 and (carry or (h and n >= lo)):
            carry = lam_inv * (carry - h.get(n, ZERO))
            if carry:
                gamma[n - 1] = carry
            n -= 2
    for start in (2, 1):
        carry = ZERO
        n = start
        while n <= window - 1 and (carry or (h and n <= hi)):
            carry = h.get(n, ZERO) + lam_s0 * carry
            if carry:
                gamma[n + 1] = carry
            n += 2
    return LatticeFunctional({(n, s0): c for n, c in gamma.items()})


def _check_recurrence(h: dict[int, Scalar], s0: int, window: int) -> None:
    """Reject a row h = {n: eta[n]} at y=s0 that fails
    eta[w+1] = lambda**(s0-1) eta[w-1] at some |w| <= window-1."""
    fact = lambda_pow(s0 - 1)
    for w in range(-window + 1, window):
        if h.get(w + 1, ZERO) != (fact * h[w - 1] if w - 1 in h else ZERO):
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
                nxt = {n: lambda_pow(-n) * c for n, c in carry.items()}
                for n, c in h.items():
                    nxt[n] = nxt[n] - c if n in nxt else -c
            else:
                nxt = dict(carry)
                for n, c in h.items():
                    nxt[n] = nxt[n] + c if n in nxt else c
                nxt = {n: lambda_pow(n) * c for n, c in nxt.items() if c}
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
    return LatticeFunctional(_absorb({s0: h}, direction, window))


_SECOND = Stencil(*((0, i, dn, dm, c) for o, i, dn, dm, c in TWISTED_ALPHA1.entries if o == 1))


def _rows_of(f: LatticeFunctional) -> dict[int, LatticeFunctional]:
    rows: dict[int, dict[Site, Scalar]] = {}
    for (n, m), c in f.terms.items():
        rows.setdefault(m, {})[(n, m)] = c
    return {m: LatticeFunctional(t) for m, t in sorted(rows.items())}


def _interior_difference(
    got: LatticeFunctional, want: LatticeFunctional, radius: int
) -> LatticeFunctional:
    """(got - want) restricted to [-radius, radius]^2."""
    diff = {}
    for n, m in got.terms.keys() | want.terms.keys():
        if abs(n) <= radius and abs(m) <= radius:
            a, b = got.terms.get((n, m), ZERO), want.terms.get((n, m), ZERO)
            if a != b:
                diff[(n, m)] = a - b
    return LatticeFunctional(diff)


def h1_trivialize(pair: CochainPair, window: int) -> SolveReport:
    """Constructive trivialization of a windowed twisted 1-cocycle.

    Phase 1 cancels every first-component row with line_eliminate; phase 2
    checks each surviving second-component row's recurrence as row_solve
    does and absorbs the rows at y >= 0 in one sweep below and those at
    y < 0 in one sweep above (_absorb), down to y = -window and up to
    y = window.  The returned witness psi satisfies twisted_alpha1(psi) =
    pair exactly at all sites with |n|, |m| <= window-1; the report's
    residual is that restriction.
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
    ok, site = kernel_check_twisted_deg1(pair, window)
    if not ok:
        raise NotACocycle(site)

    # phase 1; gamma's rows are disjoint
    acc: dict[Site, Scalar] = {}
    for s0, rowf in _rows_of(pair.first).items():
        acc.update(line_eliminate(rowf, s0, window).terms)
    # leftover = pair.second - twisted_alpha1(gamma).second inside the window
    leftover = dict(pair.second.terms)
    for (n, m), c in _SECOND.apply(LatticeFunctional(acc)).terms.items():
        if abs(n) <= window and abs(m) <= window:
            leftover[(n, m)] = leftover[(n, m)] - c if (n, m) in leftover else -c

    rows: dict[int, dict[int, Scalar]] = {}
    for (n, m), c in leftover.items():
        if c:
            rows.setdefault(m, {})[n] = c
    for s0 in sorted(rows):
        _check_recurrence(rows[s0], s0, window)
    below = {s0: h for s0, h in rows.items() if s0 >= 0}
    above = {s0: h for s0, h in rows.items() if s0 < 0}
    for part in (_absorb(below, "below", window), _absorb(above, "above", window)):
        for site, c in part.items():
            acc[site] = acc[site] + c if site in acc else c

    psi = LatticeFunctional(acc)
    out = twisted_alpha1(psi)
    residual = CochainPair(
        _interior_difference(out.first, pair.first, window - 1),
        _interior_difference(out.second, pair.second, window - 1),
    )
    if not residual.is_zero():
        raise RuntimeError("trivialization left a nonzero interior residual")
    return SolveReport(
        operator="twisted_alpha1",
        window=window,
        status="solved",
        witness=psi,
        residual=residual,
    )
