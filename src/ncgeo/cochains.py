"""Cochains on the lattice dual of the twisted torus and their differentials.

Every cochain here is finite.  A degree-0 or degree-2 cochain is a finitely
supported coefficient map phi: Z^2 -> Q(u), identified with the series
sum phi[n,m] U1**n U2**m: a LatticeFunctional, a torus.Series like
TorusElement.  A degree-1 cochain is a pair of such maps.  The
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
(out_slot, in_slot, dn, dm, terms), read as "output out_slot at site (n, m)
gains c(n, m) * input[in_slot][n+dn, m+dm]", where c is stored as data: the
sum of sign * lambda**(p*n + q*m + r) over the terms (sign, p, q, r), each
product with a term one Scalar.shift.  Everything else is derived from the
four tables: the residual image - target, of which apply is the case with no
target, and, in solver.py, the equation support and the rows of every
windowed system.  The product formulas above are the defining
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
formulas read off degreewise: sigma, (n, m) -> (-n, -m) (Series.sigma), in
degree 0, else a Stencil applied to sigma of the input like a differential;
the docstring of each public pullback gives its formula on a coefficient map.
"""

from __future__ import annotations

from dataclasses import dataclass

from .scalars import ONE, Scalar, _pneg, _pnegates, lambda_pow
from .torus import Series, Site, _halves_from_json


def site_key(site: Site) -> tuple[int, int, int]:
    """Deterministic site order: by taxicab norm, then lexicographic."""
    n, m = site
    return (abs(n) + abs(m), n, m)


class LatticeFunctional(Series):
    """A cochain's coefficient map on Z^2: a Series whose support is listed
    in site_key order."""

    __slots__ = ()

    @classmethod
    def delta(cls, n: int, m: int, c: Scalar | int = 1) -> "LatticeFunctional":
        return cls({(n, m): c})

    def support(self) -> list[Site]:
        return sorted(self.terms, key=site_key)

    def __repr__(self) -> str:
        return f"LatticeFunctional({super().__repr__()})"

    def restrict(self, radius: int) -> "LatticeFunctional":
        """Agrees with this functional on [-radius, radius]^2, zero outside."""
        kept = {
            (n, m): c
            for (n, m), c in self.terms.items()
            if abs(n) <= radius and abs(m) <= radius
        }
        return LatticeFunctional._of(kept)


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
        halves = _halves_from_json(data, ("first", "second"), "a cochain pair", LatticeFunctional)
        return cls(*halves)


# ---------------------------------------------------------------------------
# differentials


def cochain_slots(x: LatticeFunctional | CochainPair) -> tuple[LatticeFunctional, ...]:
    """The coefficient maps of a cochain: (phi,) or (first, second)."""
    return (x.first, x.second) if isinstance(x, CochainPair) else (x,)


def cochain_from_slots(parts) -> LatticeFunctional | CochainPair:
    """Inverse of cochain_slots."""
    return parts[0] if len(parts) == 1 else CochainPair(*parts)


StencilEntry = tuple[int, int, int, int, tuple[tuple[int, int, int, int], ...]]


def coefficient(terms, n: int, m: int, x: Scalar = ONE) -> Scalar:
    """x times the sum of sign * lambda**(p*n + q*m + r) over an entry's terms (sign, p, q, r)."""
    sign, p, q, r = terms[0]
    out = x.shift(2 * (p * n + q * m + r), sign)
    for sign, p, q, r in terms[1:]:
        out = out + x.shift(2 * (p * n + q * m + r), sign)
    return out


class Stencil:
    """A lattice map as a table of entries (out_slot, in_slot, dn, dm, terms):
    output out_slot at site (n, m) gains coefficient(terms, n, m) *
    input[in_slot][n+dn, m+dm].  Split once by slot, as windowed systems read
    it: rows holds the entries (in_slot, dn, dm, terms) of each output slot,
    readers the entries (out_slot, dn, dm, terms) of each input slot."""

    __slots__ = ("entries", "in_slots", "out_slots", "rows", "readers", "reach")

    def __init__(self, *entries: StencilEntry):
        self.entries = entries
        self.in_slots = 1 + max(e[1] for e in entries)
        self.out_slots = 1 + max(e[0] for e in entries)
        self.rows = [[(i, *e) for o, i, *e in entries if o == s] for s in range(self.out_slots)]
        self.readers = [[(o, *e) for o, i, *e in entries if i == s] for s in range(self.in_slots)]
        self.reach = max(max(abs(dn), abs(dm)) for _, _, dn, dm, _ in entries)

    def apply(self, x):
        """Image of a cochain: the residual pass with no target."""
        return cochain_from_slots([LatticeFunctional._of(t) for t in self.residual(x)])

    def residual(self, x, target=None) -> list[dict[Site, Scalar]]:
        """image(x) - target per output slot, as {site: nonzero Scalar}.
        Each term (sign, p, q, r) of each entry pushes every input term
        through, moving its power of u as Scalar.shift would, and meets it
        against what is left of the target at its site: a match of the power
        of u, numerator (negated for a term of sign -1, compared without
        building it) and denominator settles the site with no Scalar built.
        Otherwise it is built and taken off what is left, or, where nothing
        is, added to the image; only the first contribution to a site negates
        a numerator.  What is left is negated at the end."""
        parts = cochain_slots(x)
        raw = Scalar._raw
        out: list[dict[Site, Scalar]] = [{} for _ in range(self.out_slots)]
        left = ([{} for _ in out] if target is None
                else [dict(t.terms) for t in cochain_slots(target)])
        for o, i, dn, dm, terms in self.entries:
            acc, goal = out[o], left[o]
            for sign, p, q, r in terms:
                for (a, b), v in parts[i].terms.items():
                    n, m = site = (a - dn, b - dm)
                    k = v.s + 2 * (p * n + q * m + r)
                    t = goal.get(site)
                    if t is not None:
                        if t.s == k and t.d == v.d and (t.n == v.n if sign == 1 else _pnegates(t.n, v.n)):
                            del goal[site]
                        elif sign == 1:
                            goal[site] = t - raw(k, v.n, v.d)
                        else:
                            goal[site] = t + raw(k, v.n, v.d)
                        continue
                    prev = acc.get(site)
                    if prev is None:
                        acc[site] = raw(k, v.n if sign == 1 else _pneg(v.n), v.d)
                    elif sign == 1:
                        acc[site] = prev + raw(k, v.n, v.d)
                    else:
                        acc[site] = prev - raw(k, v.n, v.d)
        for acc, goal in zip(out, left):
            for site, t in goal.items():
                acc[site] = -t
        return [{site: c for site, c in acc.items() if c.n} for acc in out]


TWISTED_ALPHA1 = Stencil(
    (0, 0, 1, 0, ((1, 0, 0, 0),)),
    (0, 0, -1, 0, ((-1, 0, 1, 0),)),  # -lambda**m
    (1, 0, 0, 1, ((1, -1, 0, 0),)),  # lambda**-n
    (1, 0, 0, -1, ((-1, 0, 0, 0),)),
)
TWISTED_ALPHA2 = Stencil(
    (0, 0, 0, 1, ((1, -1, 0, 0),)),  # lambda**-n
    (0, 0, 0, -1, ((-1, 0, 0, 1),)),  # -lambda
    (0, 1, 1, 0, ((-1, 0, 0, 1),)),  # -lambda
    (0, 1, -1, 0, ((1, 0, 1, 0),)),  # lambda**m
)
ALPHA1 = Stencil(
    (0, 0, -1, 0, ((1, 0, 0, 0), (-1, 0, 1, 0))),  # 1 - lambda**m
    (1, 0, 0, -1, ((1, 1, 0, 0), (-1, 0, 0, 0))),  # lambda**n - 1
)
ALPHA2 = Stencil(
    (0, 0, 0, -1, ((1, 1, 0, 0), (-1, 0, 0, 1))),  # lambda**n - lambda
    (0, 1, -1, 0, ((1, 0, 1, 0), (-1, 0, 0, 1))),  # lambda**m - lambda
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
# kernel generators and the windowed cocycle check


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
    """The smallest interior site (|n|, |m| <= window-1) in site order where
    the image out of a differential is nonzero, or None."""
    interior = (s for s in out.terms if abs(s[0]) <= window - 1 and abs(s[1]) <= window - 1)
    return min(interior, key=site_key, default=None)


# ---------------------------------------------------------------------------
# pullbacks by the flip


TWISTED_PULLBACK_DEG2 = Stencil((0, 0, 0, 0, ((1, -1, 1, -1),)))  # lambda**(m-n-1)
UNTWISTED_PULLBACK_DEG2 = Stencil((0, 0, 2, 2, ((1, 1, 1, 2),)))  # lambda**(n+m+2)
UNTWISTED_PULLBACK_DEG1 = Stencil(
    (0, 0, 2, 0, ((-1, 0, 1, 0),)),  # -lambda**m
    (1, 1, 0, 2, ((-1, 1, 0, 0),)),  # -lambda**n
)


def twisted_pullback_deg0(phi: LatticeFunctional) -> LatticeFunctional:
    """Flip action on twisted degree-0 cochains: plain coefficient mirror."""
    return phi.sigma()


def twisted_pullback_deg2(phi: LatticeFunctional) -> LatticeFunctional:
    """Flip action on twisted degree-2 cochains, conjugated through U1*U2:
    psi[a,b] = lambda**(b-a-1) phi[-a,-b]."""
    return TWISTED_PULLBACK_DEG2.apply(phi.sigma())


def untwisted_pullback_deg2(phi: LatticeFunctional) -> LatticeFunctional:
    """Flip action on untwisted degree-2 cochains, conjugated through
    U1**-1 U2**-1 on one side and U2**-1 U1**-1 on the other:
    psi[a,b] = lambda**(a+b+2) phi[-2-a,-2-b]."""
    return UNTWISTED_PULLBACK_DEG2.apply(phi.sigma())


def untwisted_pullback_deg1(pair: CochainPair) -> CochainPair:
    """Flip action on untwisted degree-1 cochains:
    w1[a,b] = -lambda**b phi1[-2-a,-b], w2[a,b] = -lambda**a phi2[-a,-2-b].
    On the two surviving generator classes this is multiplication by -1."""
    return UNTWISTED_PULLBACK_DEG1.apply(CochainPair(pair.first.sigma(), pair.second.sigma()))
