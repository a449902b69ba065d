"""The algebraic twisted torus and its basic structure maps.

Elements are finite Laurent combinations sum a[n,m] * U1**n * U2**m with
coefficients in Q(u).  The two unitary generators obey the exchange rule
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

from .scalars import ONE, ZERO, Scalar, format_scalar, lambda_pow, parse_scalar

Site = tuple[int, int]


class TorusElement:
    """Finite coefficient map (n, m) -> Scalar; zero coefficients pruned."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Site, Scalar] | None = None):
        clean: dict[Site, Scalar] = {}
        if terms:
            for (n, m), c in terms.items():
                if type(n) is not int or type(m) is not int:
                    raise ValueError(f"site {(n, m)!r}: n and m must be integers")
                if isinstance(c, int):
                    c = Scalar.from_int(c)
                if c:
                    clean[(n, m)] = c
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("TorusElement is immutable")

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls) -> "TorusElement":
        return cls()

    @classmethod
    def one(cls) -> "TorusElement":
        return cls({(0, 0): ONE})

    @classmethod
    def monomial(cls, n: int, m: int, c: Scalar | int = 1) -> "TorusElement":
        return cls({(n, m): c if isinstance(c, Scalar) else Scalar.from_int(c)})

    # -- inspection -----------------------------------------------------------

    def coeff(self, n: int, m: int) -> Scalar:
        return self.terms.get((n, m), ZERO)

    def support(self) -> list[Site]:
        return sorted(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            if other == 0:
                return not self.terms
            other = TorusElement.monomial(0, 0, other)
        if not isinstance(other, TorusElement):
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

    def __add__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, ZERO) + c
        return TorusElement(out)

    def __sub__(self, other: "TorusElement") -> "TorusElement":
        if not isinstance(other, TorusElement):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "TorusElement":
        return TorusElement({k: -c for k, c in self.terms.items()})

    def scale(self, c: Scalar | int) -> "TorusElement":
        if isinstance(c, int):
            c = Scalar.from_int(c)
        if not c:
            return TorusElement()
        return TorusElement({k: c * v for k, v in self.terms.items()})

    # -- twisted product ---------------------------------------------------------

    def __mul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        if not isinstance(other, TorusElement):
            return NotImplemented
        out: dict[Site, Scalar] = {}
        for (p, q), a in self.terms.items():
            for (r, s), b in other.terms.items():
                k = (p + r, q + s)
                c = lambda_pow(q * r) * a * b
                prev = out.get(k)
                out[k] = c if prev is None else prev + c
        return TorusElement(out)

    def __rmul__(self, other):
        if isinstance(other, (Scalar, int)):
            return self.scale(other)
        return NotImplemented

    # -- structure maps ------------------------------------------------------------

    def sigma(self) -> "TorusElement":
        """The flip automorphism U1 -> U1**-1, U2 -> U2**-1."""
        return TorusElement({(-n, -m): c for (n, m), c in self.terms.items()})

    def star(self) -> "TorusElement":
        """Adjoint; coefficients pass through u -> 1/u and monomials are
        inverted and reordered, picking up lambda**(n*m)."""
        return TorusElement(
            {(-n, -m): c.star() * lambda_pow(n * m) for (n, m), c in self.terms.items()}
        )

    def delta(self, j: int) -> "TorusElement":
        """Basic derivation number j: scales the (n, m) coefficient by n
        (j = 1) or m (j = 2).  No 2*pi*i factor is included."""
        if j == 1:
            return TorusElement({(n, m): c * n for (n, m), c in self.terms.items()})
        if j == 2:
            return TorusElement({(n, m): c * m for (n, m), c in self.terms.items()})
        raise ValueError(f"derivation index must be 1 or 2, got {j!r}")

    def trace(self) -> Scalar:
        """The canonical trace: the coefficient at the identity."""
        return self.terms.get((0, 0), ZERO)

    # -- serialization ----------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "terms": [
                {"n": n, "m": m, "c": format_scalar(c)}
                for (n, m), c in sorted(self.terms.items())
            ]
        }

    @classmethod
    def from_json(cls, data: dict) -> "TorusElement":
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
        return cls(terms)


def _halves_from_json(data, names: tuple[str, str], what: str) -> list[TorusElement]:
    """The two series of a JSON object {names[0]: series, names[1]: series}.
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
            halves.append(TorusElement.from_json(data[name]))
        except ValueError as exc:
            raise ValueError(f"{what} half {name!r}: {exc}") from None
    return halves


U1 = TorusElement.monomial(1, 0)
U2 = TorusElement.monomial(0, 1)


def u1(n: int) -> TorusElement:
    return TorusElement.monomial(n, 0)


def u2(m: int) -> TorusElement:
    return TorusElement.monomial(0, m)
