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

Elimination is exact Gauss-Jordan over the scalar field with a fixed pivot
rule (variables ordered by (|n|+|m|, n, m), then slot), which makes every
witness, basis and certificate deterministic.  The pivot row for a variable
is the unused row holding it with the fewest nonzero coefficients, the lowest
row index breaking ties; this only limits fill-in.  For a fixed variable
order Gauss-Jordan ends in the same reduced echelon form whichever rows are
chosen, so pivot columns, witnesses (free variables set to 0) and kernel
bases depend on the variable order alone.

A membership solve assembles and eliminates only the target's connected
block: the equations reached from the target's support, two equations being
connected when both hold some variable with a nonzero coefficient.  This
cannot change an output.  Gauss-Jordan inside one block never touches another
block, so an equation outside the target's block keeps its zero right side;
it yields neither a witness entry nor an inconsistent row.  The block is read
off the stencil table around the target alone, its rows and multipliers keyed
by equation (out_slot, site): no list of the window's equations or variables
is set up.  Rows are eliminated in equation order and variables in pivot
order, the whole system's orders restricted to the block, so pivots and
certificates are those of the whole system.  Kernel computations still
eliminate every equation, as the nullity needs every block.

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
    out.sort(key=lambda e: (e[0], site_key(e[1])))
    return out


class _Row:
    __slots__ = ("coeffs", "rhs", "combo")

    def __init__(self, coeffs, rhs, combo):
        self.coeffs = coeffs
        self.rhs = rhs
        self.combo = combo


def _row(op: Operator, window: int, eq: EqKey, goal=None) -> _Row:
    """The row of equation eq read off the stencil table, without zero
    coefficients or variables outside the window.  A target's row (goal: its
    slots) carries its right side and multiplier {eq: 1}; a kernel row neither."""
    slot, (n, m) = eq
    coeffs = {}
    for o, in_slot, dn, dm, coeff in op.stencil.entries:
        site = (n + dn, m + dm)
        if o == slot and _inside(site, window):
            c = coeff(n, m)
            if c:
                coeffs[(in_slot, site)] = c
    if goal is None:
        return _Row(coeffs, ZERO, None)
    return _Row(coeffs, goal[slot].coeff(n, m), {eq: ONE})


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


def _scale_row(row: _Row, f: Scalar) -> None:
    row.coeffs = {k: f * c for k, c in row.coeffs.items()}
    row.rhs = f * row.rhs
    if row.combo is not None:
        row.combo = {k: f * c for k, c in row.combo.items()}


def _axpy(row: _Row, f: Scalar, pivot: _Row, i: int, cols: dict[VarKey, set[int]]) -> None:
    """row -= f * pivot, pruning exact zeros.  row is rows[i]; cols[k] gains
    or loses i where the entry for k is created or cancels."""
    coeffs = row.coeffs
    for k, c in pivot.coeffs.items():
        old = coeffs.get(k)
        nv = (ZERO if old is None else old) - f * c
        if nv:
            if old is None:
                cols[k].add(i)
            coeffs[k] = nv
        elif old is not None:
            del coeffs[k]
            cols[k].discard(i)
    row.rhs = row.rhs - f * pivot.rhs
    if row.combo is not None:
        for k, c in pivot.combo.items():
            nv = row.combo.get(k, ZERO) - f * c
            if nv:
                row.combo[k] = nv
            elif k in row.combo:
                del row.combo[k]


def _eliminate(rows: list[_Row], var_order: list[VarKey]) -> dict[VarKey, int]:
    """Gauss-Jordan in the fixed variable order; returns var -> pivot row.

    The pivot for v is the unused row holding v with the fewest entries
    (lowest index on ties), found through a column index var -> rows.
    """
    cols: dict[VarKey, set[int]] = {v: set() for v in var_order}
    for i, r in enumerate(rows):
        for k in r.coeffs:
            cols[k].add(i)
    pivots: dict[VarKey, int] = {}
    pivot_rows: set[int] = set()
    for v in var_order:
        holders = cols[v]
        candidates = [(len(rows[i].coeffs), i) for i in holders if i not in pivot_rows]
        if not candidates:
            continue
        at = min(candidates)[1]
        piv = rows[at]
        lead = piv.coeffs[v]
        if lead != ONE:
            _scale_row(piv, lead.inv())
        for i in list(holders):
            if i != at:
                _axpy(rows[i], rows[i].coeffs[v], piv, i, cols)
        pivots[v] = at
        pivot_rows.add(at)
    return pivots


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a windowed kernel or membership computation.

    status is one of "kernel-basis", "solved", "unsolvable".  On "solved"
    the witness satisfies operator(witness) == target exactly (this is
    re-verified by applying the operator, not trusted from elimination);
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
    var_order = _variables(op, window)
    rows = [_row(op, window, eq) for eq in _equations(op, window)]
    pivots = _eliminate(rows, var_order)
    free = [v for v in var_order if v not in pivots]
    basis = []
    for fv in free:
        vec = {fv: ONE}
        for pv, i in pivots.items():
            c = rows[i].coeffs.get(fv)
            if c:
                vec[pv] = -c
        basis.append(_vector_object(op, vec))
    return SolveReport(
        operator=op.name,
        window=window,
        status="kernel-basis",
        nullity=len(free),
        basis=tuple(basis),
    )


def coboundary_solve(target, operator: str, window: int) -> SolveReport:
    """Exact membership of target in the image of a windowed differential.

    The target support must keep a margin of 2 from the window edge.  On
    failure the report carries an equation-combination certificate, checked
    against the original (pre-elimination) system before being returned.
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
    eqs = sorted(block, key=lambda e: (e[0], site_key(e[1])))
    rows = [block[eq] for eq in eqs]
    var_order = sorted({k for r in rows for k in r.coeffs}, key=lambda v: (site_key(v[1]), v[0]))
    pivots = _eliminate(rows, var_order)

    bad = next((r for r in rows if not r.coeffs and r.rhs), None)
    if bad is not None:
        combo = bad.combo
        lhs: dict[VarKey, Scalar] = {}
        rhs = ZERO
        for eq, mult in combo.items():
            # elimination rewrote the block's rows; the table gives the originals
            original = _row(op, window, eq, parts)
            for k, c in original.coeffs.items():
                nv = lhs.get(k, ZERO) + mult * c
                if nv:
                    lhs[k] = nv
                elif k in lhs:
                    del lhs[k]
            rhs = rhs + mult * original.rhs
        if lhs or not rhs:
            raise RuntimeError("elimination produced an invalid certificate")
        certificate = tuple((eq, combo[eq]) for eq in eqs if combo.get(eq))
        return SolveReport(
            operator=op.name, window=window, status="unsolvable", certificate=certificate
        )

    vec = {v: rows[i].rhs for v, i in pivots.items() if rows[i].rhs}
    witness = _vector_object(op, vec)
    residual = op.apply(witness) - target
    if not residual.is_zero():
        raise RuntimeError("elimination produced an invalid witness")
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
