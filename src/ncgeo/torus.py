"""Finite lattice series, the algebraic twisted torus and its structure maps.

A Series is a finite coefficient map (n, m) -> Q(u), read as the series
sum a[n,m] * U1**n * U2**m, with its linear structure and JSON.  Its two
subclasses are TorusElement, which adds the twisted product, and the
cochain coefficient map cochains.LatticeFunctional.

In the torus the two unitary generators obey the exchange rule
U2 * U1 = lambda * U1 * U2 with lambda = u**2, which for monomials in normal
order (U1 powers first) gives

    (U1**p U2**q) * (U1**r U2**s) = lambda**(q*r) * U1**(p+r) U2**(q+s).

The star (adjoint) structure treats the generators as unitaries, U* = U**-1,
and conjugates coefficients through u -> 1/u.  The adjoint of a normal-order
monomial is rewritten back into normal order, which produces the phase
lambda**(n*m):

    (c * U1**n U2**m)* = star(c) * lambda**(n*m) * U1**-n U2**-m.

This sign convention on the reorder phase is pinned by self-adjointness of
the standard projections of the flip crossed product; see crossed.py.

>>> print(U1 * U2 - U2 * U1)
(1 - u^2)*U1*U2
>>> (U1 * U2).star() * (U1 * U2) == TorusElement.one()
True
"""

from __future__ import annotations

from .scalars import ONE, ZERO, Scalar, format_scalar, parse_scalar

Site = tuple[int, int]


class Series:
    """Finite coefficient map (n, m) -> Scalar; zero coefficients pruned.

    The public constructor validates: every site must be a pair of ints and
    every coefficient a Scalar or an int, which is read as a scalar.  _of is internal, for dicts the
    package built from valid sites and Scalar values: it only drops zeros.
    Linear operations stay in the class of self; series of different
    classes never compare equal or add.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Site, Scalar] | None = None):
        clean: dict[Site, Scalar] = {}
        for (n, m), c in (terms or {}).items():
            if type(n) is not int or type(m) is not int:
                raise ValueError(f"site {(n, m)!r}: n and m must be integers")
            if isinstance(c, int):
                c = Scalar.from_int(c)
            elif not isinstance(c, Scalar):
                raise ValueError(f"site {(n, m)!r}: coefficient {c!r} must be a Scalar or an int")
            if c:
                clean[(n, m)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError(f"{type(self).__name__} is immutable")

    @classmethod
    def _of(cls, terms: dict[Site, Scalar]):
        """Internal constructor for package-built terms: int sites, Scalar values."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "terms", {k: c for k, c in terms.items() if c.n})
        return obj

    @classmethod
    def zero(cls):
        return cls._of({})

    # -- inspection -----------------------------------------------------------

    def coeff(self, n: int, m: int) -> Scalar:
        return self.terms.get((n, m), ZERO)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.terms == other.terms

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (n, m), c in sorted(self.terms.items()):
            factors = []
            cs = format_scalar(c)
            if cs != "1" or (n, m) == (0, 0):
                factors.append(cs if ("+" not in cs[1:] and " - " not in cs) else f"({cs})")
            if n:
                factors.append("U1" if n == 1 else f"U1^{n}")
            if m:
                factors.append("U2" if m == 1 else f"U2^{m}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    # -- linear structure -------------------------------------------------------

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return self._of(out)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) - c
        return self._of(out)

    def __neg__(self):
        return self._of({k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar | int):
        if isinstance(c, int):
            c = Scalar.from_int(c)
        if not c:
            return self._of({})
        return self._of({k: c * v for k, v in self.terms.items()})

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"n": n, "m": m, "c": format_scalar(c)}
                for (n, m), c in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json(cls, data: dict):
        """Inverse of to_json.  Anything else is a ValueError that names the
        offending term: a term other than {"n": int, "m": int, "c": text},
        malformed coefficient text, or two terms at one site."""
        items = data.get("terms") if isinstance(data, dict) and len(data) == 1 else None
        if not isinstance(items, list):
            raise ValueError(f'a series is {{"terms": [...]}}, got {data!r}')
        terms: dict[Site, Scalar] = {}
        for k, t in enumerate(items):
            where = f"series term {k} {t!r}"
            if not isinstance(t, dict) or set(t) != {"n", "m", "c"}:
                raise ValueError(f'{where}: a term is {{"n": int, "m": int, "c": text}}')
            if type(t["n"]) is not int or type(t["m"]) is not int:
                raise ValueError(f"{where}: n and m must be integers")
            if not isinstance(t["c"], str):
                raise ValueError(f"{where}: c must be scalar text")
            site = (t["n"], t["m"])
            if site in terms:
                raise ValueError(f"{where}: a second term at site {site}")
            try:
                terms[site] = parse_scalar(t["c"])
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
        return cls._of(terms)


class TorusElement(Series):
    """An element of the twisted torus: a Series with the twisted product."""

    __slots__ = ()

    # -- constructors --------------------------------------------------------

    @classmethod
    def one(cls) -> "TorusElement":
        return cls._of({(0, 0): ONE})

    @classmethod
    def monomial(cls, n: int, m: int, c: Scalar | int = 1) -> "TorusElement":
        return cls({(n, m): c if isinstance(c, Scalar) else Scalar.from_int(c)})

    # -- inspection -----------------------------------------------------------

    def support(self) -> list[Site]:
        return sorted(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            other = TorusElement.monomial(0, 0, other)
        return super().__eq__(other)

    # -- twisted product ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        out: dict[Site, Scalar] = {}
        _product_into(out, self.terms, other.terms, False)
        return TorusElement._of(out)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    # -- structure maps ------------------------------------------------------------

    def sigma(self) -> "TorusElement":
        """The flip automorphism U1 -> U1**-1, U2 -> U2**-1."""
        return TorusElement._of({(-n, -m): c for (n, m), c in self.terms.items()})

    def star(self) -> "TorusElement":
        """Adjoint; coefficients pass through u -> 1/u and monomials are
        inverted and reordered, picking up lambda**(n*m)."""
        return TorusElement._of(
            {(-n, -m): c.star().shift(2 * n * m) for (n, m), c in self.terms.items()}
        )

    def delta(self, j: int) -> "TorusElement":
        """Basic derivation number j: scales the (n, m) coefficient by n
        (j = 1) or m (j = 2).  No 2*pi*i factor is included."""
        if j == 1:
            return TorusElement._of({(n, m): c * n for (n, m), c in self.terms.items()})
        if j == 2:
            return TorusElement._of({(n, m): c * m for (n, m), c in self.terms.items()})
        raise ValueError(f"derivation index must be 1 or 2, got {j!r}")

    def trace(self) -> Scalar:
        """The canonical trace: the coefficient at the identity."""
        return self.terms.get((0, 0), ZERO)


def _product_into(
    out: dict[Site, Scalar], x: dict[Site, Scalar], y: dict[Site, Scalar], flip: bool
) -> None:
    """Add the twisted product of the coefficient maps x and y into out,
    reading y through sigma when flip is set.  sigma(y) has y's term at
    (r, s) at (-r, -s), so it meets x's term at (p, q) with the phase
    lambda**(q*(-r)).  Each term pair costs one Scalar before the sum."""
    g = -1 if flip else 1
    ys = [(g * r, g * s, b) for (r, s), b in y.items()]
    get = out.get
    for (p, q), a in x.items():
        q2 = 2 * q
        for r, s, b in ys:
            k = (p + r, q + s)
            c = a._mul_shift(b, q2 * r)
            prev = get(k)
            out[k] = c if prev is None else prev + c


def _halves_from_json(data, names: tuple[str, str], what: str, cls: type[Series]) -> list:
    """The two cls series of a JSON object {names[0]: series, names[1]: series}.
    Anything else is a ValueError naming the missing or malformed half."""
    if not isinstance(data, dict):
        raise ValueError(f"{what} is an object with the halves {names}, got {data!r}")
    extra = sorted(map(repr, set(data) - set(names)))
    if extra:
        raise ValueError(f"{what} has no half {', '.join(extra)}")
    halves = []
    for name in names:
        if name not in data:
            raise ValueError(f"{what} is missing its half {name!r}")
        try:
            halves.append(cls.from_json(data[name]))
        except ValueError as exc:
            raise ValueError(f"{what} half {name!r}: {exc}") from None
    return halves


U1 = TorusElement.monomial(1, 0)
U2 = TorusElement.monomial(0, 1)


def u1(n: int) -> TorusElement:
    return TorusElement.monomial(n, 0)


def u2(m: int) -> TorusElement:
    return TorusElement.monomial(0, m)
