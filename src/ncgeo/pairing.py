"""Cyclic cocycles on the flip orbifold and the Chern pairing table.

The degree-0 classes are traces on the crossed product.  The canonical
trace tau reads the even coefficient at the origin.  For each parity
class (i,j) there is one trace supported on the odd part alone,

    psi_ij(a + b*t) = sum over n=i, m=j (mod 2) of w_ij(n,m) * b[n,m],
    w_ij(n,m) = lambda**((i*j - n*m)/2),

with the phase profile forced by the trace identity psi(xy) = psi(yx):
commuting an even monomial past t flips the odd factor, and matching
coefficients pins w up to the seed normalization w(i,j) = 1.  These
weights are the reciprocals of the degree-0 kernel phases of make_D,
which satisfy the transposed recurrence.

The degree-2 class is the volume cocycle of the torus,

    phi_C(a, b, c) = trace(a * (delta1(b)*delta2(c) - delta2(b)*delta1(c))),

extended to the crossed product by summing over group triples whose
product is the identity, each argument twisted by the group elements
accumulated to its left:

    Phi(x0, x1, x2) = phi_C(a0, a1, a2) + phi_C(a0, b1, sigma(b2))
                    + phi_C(b0, sigma(a1), sigma(b2)) + phi_C(b0, sigma(b1), a2).

The trace reads one coefficient of a product, so phi_C is evaluated as the
contraction at the identity and no product of torus elements is formed:

    phi_C(a, b, c) = sum of a[p,q] * b[r,s] * c[t,w]
                            * lambda**(s*t - p*q) * (r*w - s*t),

with (t, w) = (-p-r, -q-s), over the terms (p,q) of a and (r,s) of b.  The
phases are those of the twisted product; connes_torus_cocycle derives them.

Pairing the five standard projections against the six even classes gives
a 5 x 6 table.  Every cell is computed exactly; each carries comparison
flags against two independently recorded expected-value sets (an itemized
list and a summary table) that disagree with each other in the p and r
rows.  The computed value is the value of record; disagreements are
flagged, never merged.  The summary table also labels its middle rows
q_1/q_2 where the itemized list says q_0/q_1; rows are compared
positionally and the naming mismatch is surfaced as a note.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .crossed import (
    PROJECTION_NAMES,
    CrossedElement,
    ProjectionCheck,
    is_projection,
    make_projection,
)
from .scalars import HALF, LAMBDA, MU, ONE, ZERO, Scalar
from .torus import TorusElement


class NotAProjection(ValueError):
    """Pairing input failed the exact projection check; defects attached."""

    def __init__(self, check: ProjectionCheck):
        self.check = check
        bits = []
        if not check.idempotency_defect.is_zero():
            bits.append("e*e != e")
        if not check.adjoint_defect.is_zero():
            bits.append("e* != e")
        super().__init__("not a projection: " + " and ".join(bits))


@dataclass(frozen=True)
class CyclicCocycle:
    """One of the six even classes: tau, the four odd traces, or phi."""

    kind: str  # "trace" | "twisted-trace" | "connes"
    i: int | None = None
    j: int | None = None

    @property
    def degree(self) -> int:
        return 2 if self.kind == "connes" else 0


def Trace() -> CyclicCocycle:
    return CyclicCocycle("trace")


def TwistedTrace(i: int, j: int) -> CyclicCocycle:
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("parity indices must be 0 or 1")
    return CyclicCocycle("twisted-trace", i, j)


def ConnesTwoCocycle() -> CyclicCocycle:
    return CyclicCocycle("connes")


def _twisted_value(i: int, j: int, odd: TorusElement) -> Scalar:
    """psi_ij of an odd part: the sum of c * u**(i*j - n*m) over its terms
    c at (n,m) on the parity class (i,j); the other terms weigh 0."""
    total = ZERO
    for (n, m), c in odd.terms.items():
        if n % 2 == i and m % 2 == j:
            total = total + c.shift(i * j - n * m)
    return total


def connes_torus_cocycle(a: TorusElement, b: TorusElement, c: TorusElement) -> Scalar:
    """Volume 2-cocycle on the torus algebra,

        phi_C(a, b, c) = trace(a * (delta1(b)*delta2(c) - delta2(b)*delta1(c))),

    evaluated as the contraction the trace reads.  The twisted product
    (p,q)(r,s) = lambda**(q*r) (p+r, q+s) puts b[r,s]*c[t,w] at (r+t, s+w)
    with the factor lambda**(s*t) * (r*w - s*t), and the trace of a*X reads
    X only at (-p, -q), with the factor lambda**(-p*q).  So

        phi_C(a, b, c) = sum of a[p,q] * b[r,s] * c[t,w]
                                * lambda**(s*t - p*q) * (r*w - s*t)

    over the terms (p,q) of a and (r,s) of b, with (t,w) = (-p-r, -q-s)
    looked up in c.  No product of torus elements is formed.

    >>> from ncgeo.torus import U1, U2, u1, u2
    >>> connes_torus_cocycle(u2(-1) * u1(-1), U1, U2) == ONE
    True
    """
    total = ZERO
    for (p, q), x in a.terms.items():
        for (r, s), y in b.terms.items():
            t, w = -p - r, -q - s
            z = c.terms.get((t, w))
            k = r * w - s * t
            if z is not None and k:
                total = total + (x * y * z * k).shift(2 * (s * t - p * q))
    return total


def evaluate(cocycle: CyclicCocycle, args: Sequence[CrossedElement]) -> Scalar:
    """Exact value of a cocycle on a tuple of crossed elements.

    Degree-0 kinds take one argument, the degree-2 kind takes three.
    """
    want = 1 if cocycle.degree == 0 else 3
    if len(args) != want:
        raise ValueError(f"{cocycle.kind} expects {want} argument(s), got {len(args)}")
    if cocycle.kind == "trace":
        return args[0].even.trace()
    if cocycle.kind == "twisted-trace":
        return _twisted_value(cocycle.i, cocycle.j, args[0].odd)
    if cocycle.kind == "connes":
        x0, x1, x2 = args
        a0, b0 = x0.even, x0.odd
        a1, b1 = x1.even, x1.odd
        a2, b2 = x2.even, x2.odd
        return (
            connes_torus_cocycle(a0, a1, a2)
            + connes_torus_cocycle(a0, b1, b2.sigma())
            + connes_torus_cocycle(b0, a1.sigma(), b2.sigma())
            + connes_torus_cocycle(b0, b1.sigma(), a2)
        )
    raise ValueError(f"unknown cocycle kind {cocycle.kind!r}")


def pair(projection: CrossedElement, cocycle: CyclicCocycle) -> Scalar:
    """Pairing of a projection class with an even cyclic class.

    The value is computed at the degree-0 or degree-2 representative; the
    periodicity operator leaves it unchanged, so suspended columns reuse
    the unsuspended evaluation.
    """
    _require_projection(projection)
    return _pair_value(projection, cocycle)


def _require_projection(e: CrossedElement) -> None:
    check = is_projection(e)
    if not check.ok:
        raise NotAProjection(check)


def _pair_value(projection: CrossedElement, cocycle: CyclicCocycle) -> Scalar:
    if cocycle.degree == 0:
        return evaluate(cocycle, [projection])
    return evaluate(cocycle, [projection] * 3)


# Table layout: rows follow the projection list, columns the class list
# with the suspended degree-0 classes first and phi last.
COLUMNS = ("S_tau", "S_D11", "S_D00", "S_D01", "S_D10", "phi")

COLUMN_COCYCLES = {
    "S_tau": Trace(),
    "S_D11": TwistedTrace(1, 1),
    "S_D00": TwistedTrace(0, 0),
    "S_D01": TwistedTrace(0, 1),
    "S_D10": TwistedTrace(1, 0),
    "phi": ConnesTwoCocycle(),
}

# Expected values per the itemized list: tau pairs 1 with the identity and
# 1/2 with the other four; each remaining projection meets exactly one odd
# trace, at its own parity seed; the phi column is zero.
_TEXT_NONZERO = {
    ("one", "S_tau"): ONE,
    ("p", "S_tau"): HALF,
    ("q0", "S_tau"): HALF,
    ("q1", "S_tau"): HALF,
    ("r", "S_tau"): HALF,
    ("p", "S_D00"): HALF,
    ("q0", "S_D10"): -HALF,
    ("q1", "S_D01"): -HALF,
    ("r", "S_D11"): -(MU * HALF),
}

# Expected values per the summary table, read positionally row by row.  It
# moves the p value to the S_D11 column, swaps which odd trace the two
# middle rows meet, and prints the r value as -lambda/2 in the S_D10
# column.
_TABLE_NONZERO = {
    ("one", "S_tau"): ONE,
    ("p", "S_tau"): HALF,
    ("q0", "S_tau"): HALF,
    ("q1", "S_tau"): HALF,
    ("r", "S_tau"): HALF,
    ("p", "S_D11"): HALF,
    ("q0", "S_D01"): -HALF,
    ("q1", "S_D00"): -HALF,
    ("r", "S_D10"): -(LAMBDA * HALF),
}

_TABLE_ROW_LABELS = {"one": "1", "p": "p", "q0": "q_1", "q1": "q_2", "r": "r"}

_NOTES = (
    "expected-value sources disagree; the computed column placement and the "
    "r value -u/2 follow the itemized list, and summary-table mismatches are "
    "flagged per cell",
    "the summary table labels its middle rows q_1/q_2 while the itemized "
    "list names the same projections q_0/q_1; rows are compared positionally",
)


def text_value(row: str, col: str) -> Scalar:
    return _TEXT_NONZERO.get((row, col), ZERO)


def table_value(row: str, col: str) -> Scalar:
    return _TABLE_NONZERO.get((row, col), ZERO)


@dataclass(frozen=True)
class PairingTable:
    """All thirty pairings with per-cell agreement flags."""

    rows: tuple[str, ...]
    cols: tuple[str, ...]
    cells: dict[tuple[str, str], Scalar]

    def value(self, row: str, col: str) -> Scalar:
        return self.cells[(row, col)]

    def agrees_text(self, row: str, col: str) -> bool:
        return self.cells[(row, col)] == text_value(row, col)

    def agrees_table(self, row: str, col: str) -> bool:
        return self.cells[(row, col)] == table_value(row, col)

    def discrepancies(self) -> list[dict]:
        """Cells where any expected-value source departs from the computation."""
        out = []
        for row in self.rows:
            for col in self.cols:
                t, s = self.agrees_text(row, col), self.agrees_table(row, col)
                if not (t and s):
                    out.append(
                        {
                            "row": row,
                            "col": col,
                            "computed": str(self.value(row, col)),
                            "text": str(text_value(row, col)),
                            "table": str(table_value(row, col)),
                            "table_row_label": _TABLE_ROW_LABELS[row],
                        }
                    )
        return out

    def to_json(self) -> dict:
        cells = []
        for row in self.rows:
            for col in self.cols:
                cells.append(
                    {
                        "row": row,
                        "col": col,
                        "value": str(self.value(row, col)),
                        "agrees_text": self.agrees_text(row, col),
                        "agrees_table": self.agrees_table(row, col),
                    }
                )
        return {
            "rows": list(self.rows),
            "cols": list(self.cols),
            "cells": cells,
            "notes": list(_NOTES),
        }

    def to_csv(self) -> str:
        lines = ["projection," + ",".join(self.cols)]
        for row in self.rows:
            vals = [str(self.value(row, col)) for col in self.cols]
            lines.append(row + "," + ",".join(vals))
        return "\n".join(lines) + "\n"

    def to_text(self, annotate: bool = False) -> str:
        head = ["projection", *self.cols]
        body = [[row, *(str(self.value(row, col)) for col in self.cols)] for row in self.rows]
        widths = [max(len(r[k]) for r in [head, *body]) for k in range(len(head))]
        lines = [
            "  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip()
            for r in [head, *body]
        ]
        if annotate:
            for d in self.discrepancies():
                lines.append(
                    f"note: {d['row']}/{d['col']} computed {d['computed']}"
                    f" vs table {d['table']} (table row {d['table_row_label']})"
                )
            lines.extend(f"note: {n}" for n in _NOTES)
        return "\n".join(lines) + "\n"


def build_table() -> PairingTable:
    """Compute all thirty pairings exactly, checking each projection once."""
    cells = {}
    for row in PROJECTION_NAMES:
        e = make_projection(row)
        _require_projection(e)
        for col in COLUMNS:
            cells[(row, col)] = _pair_value(e, COLUMN_COCYCLES[col])
    return PairingTable(PROJECTION_NAMES, COLUMNS, cells)
