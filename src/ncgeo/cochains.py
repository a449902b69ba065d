"""Cochains on the lattice dual of the twisted torus and their differentials.

A degree-0 or degree-2 cochain is a coefficient map phi: Z^2 -> Q(u); a
degree-1 cochain is a pair of such maps.  Finite cochains are identified
with finite series sum phi[n,m] U1**n U2**m, and the differentials are
defined by twisted products with the generators: for the twisted
(flip-equivariant) complex

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
derived from the four tables: the finite apply (each input term pushed
through every entry), the rule-backed apply of unbounded inputs (a
rule-backed image, each output site pulled through every entry on demand
and restricted to a window when a radius is given), and, in solver.py,
the equation support and the rows of every windowed system.  The product
formulas above are kept as the defining identities; the tables are checked
against them, written with TorusElement products, by
tests/test_cochains.py::TestProductOracle.

The kernel of twisted_alpha1 is four dimensional: one generator per parity
class of the lattice.  Solving the kernel recurrences from a seed value 1
at (i, j) gives the closed form implemented by make_D:

    D(i,j)[n, m] = lambda**((n*m - i*j)/2)   for n = i, m = j (mod 2).

Pullbacks by the flip element of the equivariant structure are conjugation
formulas read off degreewise.  Each is a Stencil with mirror s = -1 (output
(a, b) reads input[in_slot][-a+dn, -b+dm]), applied like a differential, so
finite inputs have finite images and rule-backed inputs rule-backed ones; on
a coefficient map they act by

    twisted degree 0:   psi[a,b] = phi[-a,-b]
    twisted degree 2:   psi[a,b] = lambda**(b-a-1) phi[-a,-b]
    untwisted degree 2: psi[a,b] = lambda**(a+b+2) phi[-2-a,-2-b]
    untwisted degree 1: w1[a,b]  = -lambda**b phi1[-2-a,-b]
                        w2[a,b]  = -lambda**a phi2[-a,-2-b]
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable

from .scalars import ONE, ZERO, Scalar, lambda_pow
from .torus import Site, TorusElement

_LAM = lambda_pow(1)
_MINUS_ONE = Scalar.from_int(-1)


def site_key(site: Site) -> tuple[int, int, int]:
    """Deterministic site order: by taxicab norm, then lexicographic."""
    n, m = site
    return (abs(n) + abs(m), n, m)


class LatticeFunctional:
    """Coefficient map on Z^2, either finite or backed by a total rule.

    Finite functionals support exact linear algebra and serialization;
    rule-backed ones (the generator cocycles) answer coefficient queries at
    any site and can be restricted to a finite window.
    """

    __slots__ = ("terms", "rule", "rule_json")

    def __init__(
        self,
        terms: dict[Site, Scalar] | None = None,
        *,
        rule: Callable[[int, int], Scalar] | None = None,
        rule_json: dict | None = None,
    ):
        if rule is not None and terms is not None:
            raise ValueError("a functional is finite or rule-backed, not both")
        clean = None
        if rule is None:
            clean = {}
            for (n, m), c in (terms or {}).items():
                if isinstance(c, int):
                    c = Scalar.from_int(c)
                if c:
                    clean[(int(n), int(m))] = c
        object.__setattr__(self, "terms", clean)
        object.__setattr__(self, "rule", rule)
        object.__setattr__(self, "rule_json", rule_json)

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

    def is_finite(self) -> bool:
        return self.rule is None

    def coeff(self, n: int, m: int) -> Scalar:
        if self.rule is not None:
            return self.rule(n, m)
        return self.terms.get((n, m), ZERO)

    def support(self) -> list[Site]:
        if self.rule is not None:
            raise TypeError("rule-backed functional has unbounded support; restrict first")
        return sorted(self.terms, key=site_key)

    def is_zero(self) -> bool:
        if self.rule is not None:
            raise TypeError("cannot decide vanishing of a rule-backed functional; restrict first")
        return not self.terms

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __eq__(self, other) -> bool:
        if not isinstance(other, LatticeFunctional):
            return NotImplemented
        if self.rule is not None or other.rule is not None:
            raise TypeError("cannot compare a rule-backed functional; restrict first")
        return self.terms == other.terms

    def __repr__(self) -> str:
        if self.rule is not None:
            tag = self.rule_json or {"rule": "derived"}
            return f"LatticeFunctional(rule={tag})"
        return f"LatticeFunctional({self.as_torus()!r})"

    def as_torus(self) -> TorusElement:
        if self.rule is not None:
            raise TypeError("rule-backed functional is not a finite series; restrict first")
        return TorusElement(self.terms)

    def restrict(self, radius: int) -> "LatticeFunctional":
        """Finite functional agreeing with this one on [-radius, radius]^2
        and vanishing outside."""
        if self.rule is None:
            kept = {
                (n, m): c
                for (n, m), c in self.terms.items()
                if abs(n) <= radius and abs(m) <= radius
            }
            return LatticeFunctional(kept)
        span = range(-radius, radius + 1)
        return LatticeFunctional({(n, m): self.rule(n, m) for n in span for m in span})

    # -- linear structure (finite only) -------------------------------------------

    def _need_finite(self, op: str) -> None:
        if self.rule is not None:
            raise TypeError(f"{op} requires a finite functional; restrict first")

    def __add__(self, other: "LatticeFunctional") -> "LatticeFunctional":
        if not isinstance(other, LatticeFunctional):
            return NotImplemented
        self._need_finite("+")
        other._need_finite("+")
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return LatticeFunctional(out)

    def __sub__(self, other: "LatticeFunctional") -> "LatticeFunctional":
        if not isinstance(other, LatticeFunctional):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "LatticeFunctional":
        self._need_finite("-")
        return LatticeFunctional({k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar | int) -> "LatticeFunctional":
        self._need_finite("scale")
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
        if self.rule is not None:
            if self.rule_json is None:
                raise ValueError("derived rule-backed functional has no serial form")
            return dict(self.rule_json)
        return self.as_torus().to_json()

    @classmethod
    def from_json(cls, data: dict) -> "LatticeFunctional":
        if "rule" in data:
            if data["rule"] == "D":
                return make_D(int(data["i"]), int(data["j"]))
            raise ValueError(f"unknown functional rule {data['rule']!r}")
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
        return cls(
            LatticeFunctional.from_json(data["first"]),
            LatticeFunctional.from_json(data["second"]),
        )


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

    def apply(self, x, radius: int | None = None):
        """Image of a cochain.  A finite input is pushed term by term through
        the table.  The image of a rule-backed input is rule-backed: each
        output site is pulled through the entries on demand, and the image is
        restricted to [-radius, radius]^2 when a radius is given."""
        parts = cochain_slots(x)
        s = self.mirror
        if all(p.is_finite() for p in parts):
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

        def rule(slot: int, n: int, m: int) -> Scalar:
            total = ZERO
            for o, i, dn, dm, coeff in self.entries:
                if o == slot:
                    total = total + coeff(n, m) * parts[i].coeff(s * n + dn, s * m + dm)
            return total

        image = cochain_from_slots(
            [LatticeFunctional(rule=partial(rule, o)) for o in range(self.out_slots)]
        )
        return image if radius is None else image.restrict(radius)


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


def twisted_alpha1(phi: LatticeFunctional, radius: int | None = None) -> CochainPair:
    """First differential of the flip-twisted complex."""
    return TWISTED_ALPHA1.apply(phi, radius)


def twisted_alpha2(pair: CochainPair, radius: int | None = None) -> LatticeFunctional:
    """Second differential of the flip-twisted complex."""
    return TWISTED_ALPHA2.apply(pair, radius)


def alpha1(phi: LatticeFunctional, radius: int | None = None) -> CochainPair:
    """First differential of the untwisted complex."""
    return ALPHA1.apply(phi, radius)


def alpha2(pair: CochainPair, radius: int | None = None) -> LatticeFunctional:
    """Second differential of the untwisted complex."""
    return ALPHA2.apply(pair, radius)


# ---------------------------------------------------------------------------
# kernel generators and kernel checks


def make_D(i: int, j: int) -> LatticeFunctional:
    """Generator of the twisted degree-0 kernel on the parity class (i, j).

    Seeded with value 1 at (i, j); the kernel recurrences
    phi[n+1,m] = lambda**m phi[n-1,m] and phi[n,m+1] = lambda**n phi[n,m-1]
    propagate it to lambda**((n*m - i*j)/2) across the whole class.
    """
    if i not in (0, 1) or j not in (0, 1):
        raise ValueError("parity class indices must be 0 or 1")

    def rule(n: int, m: int) -> Scalar:
        if (n - i) % 2 or (m - j) % 2:
            return ZERO
        return lambda_pow((n * m - i * j) // 2)

    return LatticeFunctional(rule=rule, rule_json={"rule": "D", "i": i, "j": j})


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
