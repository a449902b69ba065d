"""Crossed product of the twisted torus by the order-two flip.

An element is a pair x = a + b*t where a, b live in the torus algebra and t
is the order-two unitary implementing the flip: t*t = 1, t*c*t = sigma(c).
Multiplication follows from these relations:

    (a + b*t)(c + d*t) = (a*c + b*sigma(d)) + (a*d + b*sigma(c))*t

and t* = t forces the adjoint (b*t)* = sigma(b.star())*t.

The five standard projections of this algebra are built here:

    one = 1
    p   = (1 + t)/2
    q0  = (1 - U1*t)/2
    q1  = (1 - U2*t)/2
    r   = (1 - u*U1*U2*t)/2

The square root u of the twist in r is exactly what makes r*r = r: the odd
part contributes b*sigma(b) = (u/2)**2 * (U1*U2)(U1**-1 U2**-1) = 1/4.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import HALF, MU, Scalar
from .torus import TorusElement, U1, U2, _halves_from_json


class CrossedElement:
    """Pair (even, odd) representing even + odd*t."""

    __slots__ = ("even", "odd")

    def __init__(self, even: TorusElement | None = None, odd: TorusElement | None = None):
        object.__setattr__(self, "even", even if even is not None else TorusElement())
        object.__setattr__(self, "odd", odd if odd is not None else TorusElement())

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("CrossedElement is immutable")

    @classmethod
    def one(cls) -> "CrossedElement":
        return cls(TorusElement.one(), None)

    @classmethod
    def from_torus(cls, a: TorusElement) -> "CrossedElement":
        return cls(a, None)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return self.even == other.even and self.odd == other.odd

    def is_zero(self) -> bool:
        return self.even.is_zero() and self.odd.is_zero()

    def __repr__(self) -> str:
        if self.is_zero():
            return "0"
        parts = []
        if self.even:
            parts.append(repr(self.even))
        if self.odd:
            parts.append(f"({self.odd!r})*t")
        return " + ".join(parts)

    def __add__(self, other: "CrossedElement") -> "CrossedElement":
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return CrossedElement(self.even + other.even, self.odd + other.odd)

    def __sub__(self, other: "CrossedElement") -> "CrossedElement":
        if not isinstance(other, CrossedElement):
            return NotImplemented
        return CrossedElement(self.even - other.even, self.odd - other.odd)

    def __neg__(self) -> "CrossedElement":
        return CrossedElement(-self.even, -self.odd)

    def scale(self, c: Scalar | int) -> "CrossedElement":
        return CrossedElement(self.even.scale(c), self.odd.scale(c))

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        if not isinstance(other, CrossedElement):
            return NotImplemented
        a, b = self.even, self.odd
        c, d = other.even, other.odd
        return CrossedElement(a * c + b * d.sigma(), a * d + b * c.sigma())

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    def star(self) -> "CrossedElement":
        """Adjoint with t self-adjoint: (b*t)* = t*b* = sigma(b*)*t."""
        return CrossedElement(self.even.star(), self.odd.star().sigma())

    def to_json(self) -> dict:
        return {"even": self.even.to_json(), "odd": self.odd.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "CrossedElement":
        """Inverse of to_json; a ValueError names a missing or malformed half."""
        return cls(*_halves_from_json(data, ("even", "odd"), "a crossed element"))


@dataclass(frozen=True)
class ProjectionCheck:
    """Outcome of is_projection with the exact defects as witnesses."""

    ok: bool
    idempotency_defect: CrossedElement
    adjoint_defect: CrossedElement


def is_projection(x: CrossedElement) -> ProjectionCheck:
    """Exact check of x*x = x and x* = x; defects returned even on success."""
    idem = x * x - x
    adj = x.star() - x
    return ProjectionCheck(idem.is_zero() and adj.is_zero(), idem, adj)


PROJECTION_NAMES = ("one", "p", "q0", "q1", "r")


def make_projection(name: str) -> CrossedElement:
    """One of the five standard projections; see the module docstring."""
    half = TorusElement.monomial(0, 0, HALF)
    if name == "one":
        return CrossedElement.one()
    if name == "p":
        return CrossedElement(half, half)
    if name == "q0":
        return CrossedElement(half, U1.scale(-HALF))
    if name == "q1":
        return CrossedElement(half, U2.scale(-HALF))
    if name == "r":
        return CrossedElement(half, (U1 * U2).scale(-HALF * MU))
    raise ValueError(f"unknown projection {name!r}; expected one of {PROJECTION_NAMES}")
