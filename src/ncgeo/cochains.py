"""Cochains on the lattice dual of the twisted torus and their differentials.

Every cochain here is finite.  A degree-0 or degree-2 cochain is a finitely
supported coefficient map phi: Z^2 -> Q(u), identified with the series
sum phi[n,m] U1**n U2**m; a degree-1 cochain is a pair of such maps.  The
differentials are defined by twisted products with the generators: for the
twisted (flip-equivariant) complex

    twisted_alpha1(phi)  = (U1**-1 phi - phi U1,  U2**-1 phi - phi U2)
    twisted_alpha2(f, g) = U2**-1 f - lambda f U2 - lambda U1**-1 g + g U1

and for the untwisted complex

    alpha1(phi)  = (U1 phi - phi U1,  U2 phi - phi U2)
    alpha2(f, g) = U2 f - lambda f U2 - lambda U1 g + g U1.

Coefficientwise these expand to the stencil recurrences

    twisted_alpha1: first[n,m]  = phi[n+1,m] - lambda**m  phi[n-1,m]
                    second[n,m] = lambda**-n phi[n,m+1] - phi[n,m-1]
    twisted_alpha2: out[n,m] = lambda**-n f[n,m+1] - lambda f[n,m-1]
                               - lambda g[n+1,m] + lambda**m g[n-1,m]
    alpha1:         first[n,m]  = (1 - lambda**m) phi[n-1,m]
                    second[n,m] = (lambda**n - 1) phi[n,m-1]
    alpha2:         out[n,m] = (lambda**n - lambda) f[n,m-1]
                               + (lambda**m - lambda) g[n-1,m]

and each recurrence is written down once, as a Stencil: a table of entries
(out_slot, in_slot, dn, dm, coeff), read as "output out_slot at site (n, m)
gains coeff(n, m) * input[in_slot][n+dn, m+dm]".  Everything else is
derived from the four tables: the apply (each input term pushed through
every entry) and, in solver.py, the equation support and the rows of every
windowed system.  The product formulas above are kept as the defining
identities; the tables are checked against them, written with TorusElement
products, by tests/test_cochains.py::TestProductOracle.

The kernel of twisted_alpha1 is four dimensional: one generator per parity
class of the lattice.  Solving the kernel recurrences from a seed value 1
at (i, j) gives the closed form

    D(i,j)[n, m] = lambda**((n*m - i*j)/2)   for n = i, m = j (mod 2).

D(i,j) is an infinite cocycle; make_D returns it on a window
[-radius, radius]^2, and the twisted_alpha1 image of that window vanishes
at every site with |n|, |m| <= radius - 1.

Pullbacks by the flip element of the equivariant structure are conjugation
formulas read off degreewise.  Each is a Stencil with mirror s = -1 (output
(a, b) reads input[in_slot][-a+dn, -b+dm]), applied like a differential; on
a coefficient map they act by

    twisted degree 0:   psi[a,b] = phi[-a,-b]
    twisted degree 2:   psi[a,b] = lambda**(b-a-1) phi[-a,-b]
    untwisted degree 2: psi[a,b] = lambda**(a+b+2) phi[-2-a,-2-b]
    untwisted degree 1: w1[a,b]  = -lambda**b phi1[-2-a,-b]
                        w2[a,b]  = -lambda**a phi2[-a,-2-b]
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .scalars import ONE, ZERO, Scalar, lambda_pow
from .torus import Site, TorusElement, _halves_from_json

_LAM = lambda_pow(1)
_MINUS_ONE = Scalar.from_int(-1)


def site_key(site: Site) -> tuple[int, int, int]:
    """Deterministic site order: by taxicab norm, then lexicographic."""
    n, m = site
    return (abs(n) + abs(m), n, m)


class LatticeFunctional:
    """Finite coefficient map (n, m) -> Scalar on Z^2; zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Site, Scalar] | None = None):
        clean = {}
        for (n, m), c in (terms or {}).items():
            if type(n) is not int or type(m) is not int:
                raise ValueError(f"site {(n, m)!r}: n and m must be integers")
            if isinstance(c, int):
                c = Scalar.from_int(c)
            if c:
                clean[(n, m)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("LatticeFunctional is immutable")

    # -- constructors ---------------------------------------------------------

    @classmethod
    def zero(cls) -> "LatticeFunctional":
        return cls({})

    @classmethod
    def delta(cls, n: int, m: int, c: Scalar | int = 1) -> "LatticeFunctional":
        return cls({(n, m): c})

    # -- queries ----------------------------------------------------------------

    def coeff(self, n: int, m: int) -> Scalar:
        return self.terms.get((n, m), ZERO)

    def support(self) -> list[Site]:
        return sorted(self.terms, key=site_key)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeFunctional):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        return f"LatticeFunctional({self.as_torus()!r})"

    def as_torus(self) -> TorusElement:
        return TorusElement(self.terms)

    def restrict(self, radius: int) -> "LatticeFunctional":
        """Agrees with this functional on [-radius, radius]^2, zero outside."""
        kept = {
            (n, m): c
            for (n, m), c in self.terms.items()
            if abs(n) <= radius and abs(m) <= radius
        }
        return LatticeFunctional(kept)

    # -- linear structure ---------------------------------------------------------

    def __add__(self, other: "LatticeFunctional") -> "LatticeFunctional":
        if not isinstance(other, LatticeFunctional):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return LatticeFunctional(out)

    def __sub__(self, other: "LatticeFunctional") -> "LatticeFunctional":
        if not isinstance(other, LatticeFunctional):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LatticeFunctional":
        return LatticeFunctional({k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar | int) -> "LatticeFunctional":
        if isinstance(c, int):
            c = Scalar.from_int(c)
        if not c:
            return LatticeFunctional({})
        return LatticeFunctional({k: c * v for k, v in self.terms.items()})

    # -- evaluation against algebra elements ------------------------------------------

    def pair_with(self, x: TorusElement) -> Scalar:
        """Dual pairing sum phi[n,m] * x[n,m] (finite because x is)."""
        out = ZERO
        for (n, m), c in x.terms.items():
            out = out + self.coeff(n, m) * c
        return out

    # -- serialization -------------------------------------------------------------------

    def to_json(self) -> dict:
        return self.as_torus().to_json()

    @classmethod
    def from_json(cls, data: dict) -> "LatticeFunctional":
        return cls(TorusElement.from_json(data).terms)


@dataclass(frozen=True)
class CochainPair:
    """Degree-1 cochain: a pair of coefficient maps."""

    first: LatticeFunctional
    second: LatticeFunctional

    @classmethod
    def zero(cls) -> "CochainPair":
        return cls(LatticeFunctional.zero(), LatticeFunctional.zero())

    def is_zero(self) -> bool:
        return self.first.is_zero() and self.second.is_zero()

    def __add__(self, other: "CochainPair") -> "CochainPair":
        return CochainPair(self.first + other.first, self.second + other.second)

    def __sub__(self, other: "CochainPair") -> "CochainPair":
        return CochainPair(self.first - other.first, self.second - other.second)

    def restrict(self, radius: int) -> "CochainPair":
        return CochainPair(self.first.restrict(radius), self.second.restrict(radius))

    def to_json(self) -> dict:
        return {"first": self.first.to_json(), "second": self.second.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "CochainPair":
        """Inverse of to_json; a ValueError names a missing or malformed half."""
        first, second = _halves_from_json(data, ("first", "second"), "a cochain pair")
        return cls(LatticeFunctional(first.terms), LatticeFunctional(second.terms))


# ---------------------------------------------------------------------------
# differentials


def cochain_slots(x: LatticeFunctional | CochainPair) -> tuple[LatticeFunctional, ...]:
    """The coefficient maps of a cochain: (phi,) or (first, second)."""
    return (x.first, x.second) if isinstance(x, CochainPair) else (x,)


def cochain_from_slots(parts) -> LatticeFunctional | CochainPair:
    """Inverse of cochain_slots."""
    return parts[0] if len(parts) == 1 else CochainPair(*parts)


StencilEntry = tuple[int, int, int, int, Callable[[int, int], Scalar]]


class Stencil:
    """A lattice map as a table of entries (out_slot, in_slot, dn, dm, coeff)
    and a mirror s, 1 for the differentials and -1 for the flip pullbacks:
    output out_slot at site (n, m) gains coeff(n, m) * input[in_slot][s*n+dn, s*m+dm].
    """

    __slots__ = ("entries", "mirror", "in_slots", "out_slots")

    def __init__(self, *entries: StencilEntry, mirror: int = 1):
        self.entries = entries
        self.mirror = mirror
        self.in_slots = 1 + max(e[1] for e in entries)
        self.out_slots = 1 + max(e[0] for e in entries)

    def apply(self, x):
        """Image of a cochain, each input term pushed through the table."""
        parts = cochain_slots(x)
        s = self.mirror
        out: list[dict[Site, Scalar]] = [{} for _ in range(self.out_slots)]
        for o, i, dn, dm, coeff in self.entries:
            acc = out[o]
            for (a, b), v in parts[i].terms.items():
                site = (s * (a - dn), s * (b - dm))
                c = coeff(*site) * v
                if c:
                    prev = acc.get(site)
                    acc[site] = c if prev is None else prev + c
        return cochain_from_slots([LatticeFunctional(t) for t in out])


TWISTED_ALPHA1 = Stencil(
    (0, 0, 1, 0, lambda n, m: ONE),
    (0, 0, -1, 0, lambda n, m: -lambda_pow(m)),
    (1, 0, 0, 1, lambda n, m: lambda_pow(-n)),
    (1, 0, 0, -1, lambda n, m: _MINUS_ONE),
)
TWISTED_ALPHA2 = Stencil(
    (0, 0, 0, 1, lambda n, m: lambda_pow(-n)),
    (0, 0, 0, -1, lambda n, m: -_LAM),
    (0, 1, 1, 0, lambda n, m: -_LAM),
    (0, 1, -1, 0, lambda n, m: lambda_pow(m)),
)
ALPHA1 = Stencil(
    (0, 0, -1, 0, lambda n, m: ONE - lambda_pow(m)),
    (1, 0, 0, -1, lambda n, m: lambda_pow(n) - ONE),
)
ALPHA2 = Stencil(
    (0, 0, 0, -1, lambda n, m: lambda_pow(n) - _LAM),
    (0, 1, -1, 0, lambda n, m: lambda_pow(m) - _LAM),
)


def twisted_alpha1(phi: LatticeFunctional) -> CochainPair:
    """First differential of the flip-twisted complex."""
    return TWISTED_ALPHA1.apply(phi)


def twisted_alpha2(pair: CochainPair) -> LatticeFunctional:
    """Second differential of the flip-twisted complex."""
    return TWISTED_ALPHA2.apply(pair)


def alpha1(phi: LatticeFunctional) -> CochainPair:
    """First differential of the untwisted complex."""
    return ALPHA1.apply(phi)


def alpha2(pair: CochainPair) -> LatticeFunctional:
    """Second differential of the untwisted complex."""
    return ALPHA2.apply(pair)


# ---------------------------------------------------------------------------
# kernel generators and kernel checks


def make_D(i: int, j: int, radius: int) -> LatticeFunctional:
    """Generator of the twisted degree-0 kernel on the parity class (i, j),
    on the window [-radius, radius]^2.

    Seeded with value 1 at (i, j); the kernel recurrences
    phi[n+1,m] = lambda**m phi[n-1,m] and phi[n,m+1] = lambda**n phi[n,m-1]
    propagate it to lambda**((n*m - i*j)/2) across the whole class.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("parity class indices must be 0 or 1")
    span = range(-radius, radius + 1)
    return LatticeFunctional(
        {
            (n, m): lambda_pow((n * m - i * j) // 2)
            for n in span
            for m in span
            if (n - i) % 2 == 0 and (m - j) % 2 == 0
        }
    )


def _violations(out: LatticeFunctional, window: int) -> Site | None:
    interior = [
        s
        for s in out.support()
        if abs(s[0]) <= window - 1 and abs(s[1]) <= window - 1
    ]
    return min(interior, key=site_key) if interior else None


def kernel_check_twisted_deg1(pair: CochainPair, window: int) -> tuple[bool, Site | None]:
    """Does twisted_alpha2(pair) vanish at every site whose full stencil lies
    inside the window?  Returns the smallest offending site otherwise."""
    bad = _violations(twisted_alpha2(pair.restrict(window)), window)
    return bad is None, bad


def kernel_check_untwisted_deg1(pair: CochainPair, window: int) -> tuple[bool, Site | None]:
    """Same check against the untwisted second differential, equivalently the
    sitewise relation (lambda**n - lambda) f[n,m-1] = (lambda - lambda**m) g[n-1,m]."""
    bad = _violations(alpha2(pair.restrict(window)), window)
    return bad is None, bad


# ---------------------------------------------------------------------------
# pullbacks by the flip


TWISTED_PULLBACK_DEG0 = Stencil((0, 0, 0, 0, lambda n, m: ONE), mirror=-1)
TWISTED_PULLBACK_DEG2 = Stencil((0, 0, 0, 0, lambda n, m: lambda_pow(m - n - 1)), mirror=-1)
UNTWISTED_PULLBACK_DEG2 = Stencil((0, 0, -2, -2, lambda n, m: lambda_pow(n + m + 2)), mirror=-1)
UNTWISTED_PULLBACK_DEG1 = Stencil(
    (0, 0, -2, 0, lambda n, m: -lambda_pow(m)),
    (1, 1, 0, -2, lambda n, m: -lambda_pow(n)),
    mirror=-1,
)


def twisted_pullback_deg0(phi: LatticeFunctional) -> LatticeFunctional:
    """Flip action on twisted degree-0 cochains: plain coefficient mirror."""
    return TWISTED_PULLBACK_DEG0.apply(phi)


def twisted_pullback_deg2(phi: LatticeFunctional) -> LatticeFunctional:
    """Flip action on twisted degree-2 cochains, conjugated through U1*U2:
    psi[a,b] = lambda**(b-a-1) phi[-a,-b]."""
    return TWISTED_PULLBACK_DEG2.apply(phi)


def untwisted_pullback_deg2(phi: LatticeFunctional) -> LatticeFunctional:
    """Flip action on untwisted degree-2 cochains, conjugated through
    U1**-1 U2**-1 on one side and U2**-1 U1**-1 on the other:
    psi[a,b] = lambda**(a+b+2) phi[-2-a,-2-b]."""
    return UNTWISTED_PULLBACK_DEG2.apply(phi)


def untwisted_pullback_deg1(pair: CochainPair) -> CochainPair:
    """Flip action on untwisted degree-1 cochains:
    w1[a,b] = -lambda**b phi1[-2-a,-b], w2[a,b] = -lambda**a phi2[-a,-2-b].
    On the two surviving generator classes this is multiplication by -1."""
    return UNTWISTED_PULLBACK_DEG1.apply(pair)
