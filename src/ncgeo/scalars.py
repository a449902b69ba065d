"""Exact arithmetic in the field Q(u) of rational functions in one formal unit u.

The deformation parameter of the twisted torus algebra is lambda = u**2, so
that u itself serves as the square root of lambda.  Keeping u as a formal
variable (rather than a complex number) makes every comparison in the engine
an exact polynomial identity: two values are equal iff their canonical forms
coincide, and "generically nonzero" coefficients such as 1 - lambda**m are
honestly invertible.

A Scalar is stored as a triple (shift, num, den) representing

    u**shift * num(u) / den(u)

where num and den are integer-coefficient polynomials (ascending tuples)
that are not divisible by u.  Invariants of the canonical form:

  * zero is (0, (), (1,));
  * otherwise num[0] != 0 and den[0] != 0 (all powers of u live in shift),
    den has positive leading coefficient, num and den share no polynomial
    factor and their integer contents are coprime.

Splitting off the power of u keeps the ubiquitous monomials (+/- u**k) free
of gcd work, and it makes the star involution u -> 1/u a cheap coefficient
reversal.

>>> print(MU.inv() + MU)
(1 + u^2)/u
>>> print(lambda_pow(-1))
1/u^2
>>> (ONE - LAMBDA) * (ONE + LAMBDA) == ONE - lambda_pow(2)
True
>>> print(Scalar.parse("(1 - u^2)/u").star())
(-1 + u^2)/u
"""

from __future__ import annotations

import cmath
import math
import operator
import re


class PoleError(ZeroDivisionError):
    """Numeric evaluation hit a zero of the denominator."""


# ---------------------------------------------------------------------------
# integer polynomial helpers; a polynomial is a tuple of ints, ascending
# degree, with no trailing zeros ( () is the zero polynomial )


def _pstrip(c: list[int]) -> tuple[int, ...]:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _padd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, x in enumerate(b):
        out[i] += x
    return _pstrip(out)


def _pneg(a: tuple[int, ...]) -> tuple[int, ...]:
    return tuple([-x for x in a])


def _pmul(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _pstrip(out)


def _pcontent(a: tuple[int, ...]) -> int:
    g = 0
    for x in a:
        g = math.gcd(g, x)
    return g


def _pdiv_exact(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Quotient a // b when b divides a exactly (integer coefficients)."""
    if not a:
        return ()
    assert b, "division by zero polynomial"
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - len(b) + 1)
    for i in range(len(q) - 1, -1, -1):
        head = rem[i + db]
        if head % lb:
            raise ArithmeticError("inexact polynomial division")
        c = head // lb
        q[i] = c
        if c:
            for j, y in enumerate(b):
                rem[i + j] -= c * y
    if any(rem):
        raise ArithmeticError("inexact polynomial division")
    return _pstrip(q)


def _prem(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Pseudo-remainder of a by b (agrees with the true remainder up to a
    power of the leading coefficient of b)."""
    r = list(a)
    db, lb = len(b) - 1, b[-1]
    while True:
        while r and r[-1] == 0:
            r.pop()
        if len(r) - 1 < db or not r:
            return tuple(r)
        head, shift = r[-1], len(r) - 1 - db
        r = [x * lb for x in r]
        for j, y in enumerate(b):
            r[shift + j] -= head * y


def _pgcd(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """Gcd of integer polynomials: gcd of contents times primitive gcd,
    normalized to positive leading coefficient."""
    if not a:
        return b if not b or b[-1] > 0 else _pneg(b)
    if not b:
        return a if a[-1] > 0 else _pneg(a)
    ca, cb = _pcontent(a), _pcontent(b)
    a = tuple(x // ca for x in a)
    b = tuple(x // cb for x in b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        r = _prem(a, b)
        if r:
            cr = _pcontent(r)
            r = tuple(x // cr for x in r)
        a, b = b, r
    c = math.gcd(ca, cb)
    if a[-1] < 0:
        a = _pneg(a)
    return tuple(x * c for x in a)


def _peval(a: tuple[int, ...], z: complex) -> complex:
    out = 0j
    for c in reversed(a):
        out = out * z + c
    return out


class Scalar:
    """An element of Q(u) in canonical form.  Immutable and hashable."""

    __slots__ = ("s", "n", "d")

    def __init__(self, shift: int = 0, num: tuple[int, ...] = (), den: tuple[int, ...] = (1,)):
        s, n, d = _canonical(shift, num, den)
        _SET_S(self, s)
        _SET_N(self, n)
        _SET_D(self, d)

    def __setattr__(self, *a):  # pragma: no cover - guard rail
        raise AttributeError("Scalar is immutable")

    @classmethod
    def _raw(cls, s: int, n: tuple[int, ...], d: tuple[int, ...]) -> "Scalar":
        """Internal constructor for values already in canonical form."""
        obj = object.__new__(cls)
        _SET_S(obj, s)
        _SET_N(obj, n)
        _SET_D(obj, d)
        return obj

    @classmethod
    def from_int(cls, k: int) -> "Scalar":
        if not isinstance(k, int):
            raise TypeError(f"from_int needs an int, not {type(k).__name__}")
        if k == 0:
            return ZERO
        return cls._raw(0, (k,), (1,))

    # -- predicates ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.n

    def __bool__(self) -> bool:
        return bool(self.n)

    # -- ring/field structure ----------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Scalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self.s == other.s and self.n == other.n and self.d == other.d

    def __hash__(self) -> int:
        # __eq__ equates integer-valued scalars with ints, so they hash alike
        if self.s == 0 and self.d == (1,) and len(self.n) <= 1:
            return hash(self.n[0]) if self.n else 0
        return hash((self.s, self.n, self.d))

    def __neg__(self) -> "Scalar":
        return Scalar._raw(self.s, _pneg(self.n), self.d)

    def __add__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not self.n:
            return other
        if not other.n:
            return self
        if self.d == (1,) and other.d == (1,):
            return _laurent_add(self.s, self.n, other.s, other.n)
        s = min(self.s, other.s)
        a = (0,) * (self.s - s) + self.n
        b = (0,) * (other.s - s) + other.n
        if self.d == other.d:
            return Scalar(s, _padd(a, b), self.d)
        return Scalar(s, _padd(_pmul(a, other.d), _pmul(b, self.d)), _pmul(self.d, other.d))

    __radd__ = __add__

    def __sub__(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        if not other.n:
            return self
        if not self.n:
            return -other
        if self.d == (1,) and other.d == (1,):
            return _laurent_add(self.s, self.n, other.s, other.n, -1)
        return self + (-other)

    def __rsub__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self._mul_shift(other, 0)

    __rmul__ = __mul__

    def _mul_shift(self, other: "Scalar", k: int) -> "Scalar":
        """u**k * self * other for a Scalar other, as one Scalar: the product
        with k added to its power of u, so (self * other).shift(k) builds
        nothing twice.  __mul__ is this with k = 0."""
        n1, n2 = self.n, other.n
        if not n1 or not n2:
            return ZERO
        s, d1, d2 = self.s + other.s + k, self.d, other.d
        if d1 == (1,) and d2 == (1,):
            # the hot path: no cancellation can occur against a unit den,
            # and two single-term numerators need no polynomial product
            if len(n1) == 1 and len(n2) == 1:
                return Scalar._raw(s, (n1[0] * n2[0],), (1,))
            return Scalar._raw(s, _pmul(n1, n2), (1,))
        g = _pgcd(n1, d2)
        if g != (1,):
            n1, d2 = _pdiv_exact(n1, g), _pdiv_exact(d2, g)
        g = _pgcd(n2, d1)
        if g != (1,):
            n2, d1 = _pdiv_exact(n2, g), _pdiv_exact(d1, g)
        num, den = _pmul(n1, n2), _pmul(d1, d2)
        if den[-1] < 0:
            num, den = _pneg(num), _pneg(den)
        return Scalar._raw(s, num, den)

    def shift(self, k: int, sign: int = 1) -> "Scalar":
        """sign * u**k * self, for sign 1 or -1.  Multiplying by a signed
        monomial only moves the power of u, so the numerator and denominator
        are reused: no polynomial product and no gcd.

        >>> x = Scalar.parse("(1 + u)/(2 - u^2)")
        >>> print(x.shift(3, -1))
        (u^3 + u^4)/(-2 + u^2)
        >>> x.shift(-4) == mu_pow(-4) * x
        True
        """
        if sign != 1 and sign != -1:
            raise ValueError(f"shift sign must be 1 or -1, got {sign!r}")
        if not self.n:
            return ZERO
        return Scalar._raw(self.s + k, self.n if sign == 1 else _pneg(self.n), self.d)

    def inv(self) -> "Scalar":
        if not self.n:
            raise ZeroDivisionError("inverse of zero")
        n, d = self.d, self.n
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return Scalar._raw(-self.s, n, d)

    def __truediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other) -> "Scalar":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int) -> "Scalar":
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return self.inv() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- the star involution u -> 1/u ---------------------------------------

    def star(self) -> "Scalar":
        """Field automorphism sending u to its inverse.

        On the canonical triple this is a coefficient reversal: the image of
        u**s * n(u)/d(u) is u**(-s + deg d - deg n) * rev(n)(u) / rev(d)(u).
        """
        if not self.n:
            return ZERO
        n = tuple(reversed(self.n))
        d = tuple(reversed(self.d))
        if d[-1] < 0:
            n, d = _pneg(n), _pneg(d)
        return Scalar._raw(-self.s + (len(self.d) - 1) - (len(self.n) - 1), n, d)

    # -- numeric channel ------------------------------------------------------

    def eval_numeric(self, theta: float) -> complex:
        """Evaluate at u = exp(i*pi*theta), so lambda = exp(2*pi*i*theta)."""
        z = cmath.exp(1j * math.pi * theta)
        dv = _peval(self.d, z)
        if abs(dv) < 1e-12:
            raise PoleError(f"denominator vanishes at theta={theta!r}")
        if not self.n:
            return 0j
        return z ** self.s * _peval(self.n, z) / dv

    # -- text form -------------------------------------------------------------

    def __str__(self) -> str:
        return format_scalar(self)

    def __repr__(self) -> str:
        return f"Scalar[{format_scalar(self)}]"

    @classmethod
    def parse(cls, text: str) -> "Scalar":
        return parse_scalar(text)


def _canonical(shift: int, num, den) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    num = _pstrip(list(num))
    den = _pstrip(list(den))
    if not den:
        raise ZeroDivisionError("zero denominator")
    if not num:
        return 0, (), (1,)
    i = 0
    while num[i] == 0:
        i += 1
    if i:
        shift += i
        num = num[i:]
    j = 0
    while den[j] == 0:
        j += 1
    if j:
        shift -= j
        den = den[j:]
    if den == (1,):  # nothing can cancel against a unit denominator
        return shift, num, den
    g = _pgcd(num, den)
    if g != (1,):
        num, den = _pdiv_exact(num, g), _pdiv_exact(den, g)
    if den[-1] < 0:
        num, den = _pneg(num), _pneg(den)
    return shift, num, den


def _laurent_add(
    s1: int, a: tuple[int, ...], s2: int, b: tuple[int, ...], sign: int = 1
) -> Scalar:
    """u**s1 * a + sign * u**s2 * b, for sign 1 or -1, nonzero a and b not
    divisible by u, both over the denominator 1.  The sign is applied while
    adding, so a difference negates no tuple.  Nothing can cancel against a
    unit denominator, so the canonical form only strips the zeros the sum
    leaves at either end."""
    if s1 <= s2:
        lo, out, k = s1, list(a), s2 - s1
    else:
        lo, out, k = s2, [0] * (s1 - s2), 0
        out += a
    grow = k + len(b) - len(out)
    if grow > 0:
        out += [0] * grow
    if sign == 1:
        for j, x in enumerate(b, k):
            out[j] += x
    else:
        for j, x in enumerate(b, k):
            out[j] -= x
    while out and not out[-1]:
        out.pop()
    if not out:
        return ZERO
    i = 0
    while not out[i]:
        i += 1
    return Scalar._raw(lo + i, tuple(out[i:]) if i else tuple(out), (1,))


# the slot setters, which bypass the immutability guard of __setattr__
_SET_S, _SET_N, _SET_D = Scalar.s.__set__, Scalar.n.__set__, Scalar.d.__set__


def _coerce(x) -> "Scalar":
    if isinstance(x, Scalar):
        return x
    if isinstance(x, int):
        return Scalar.from_int(x)
    return NotImplemented


ZERO = Scalar._raw(0, (), (1,))
ONE = Scalar._raw(0, (1,), (1,))
MU = Scalar._raw(1, (1,), (1,))
LAMBDA = Scalar._raw(2, (1,), (1,))
HALF = Scalar._raw(0, (1,), (2,))


def lambda_pow(k: int) -> Scalar:
    """The monomial lambda**k = u**(2k)."""
    return Scalar._raw(2 * k, (1,), (1,))


def mu_pow(k: int) -> Scalar:
    return Scalar._raw(k, (1,), (1,))


# ---------------------------------------------------------------------------
# text form: integer-coefficient Laurent expressions in u, e.g. "(1 - u^2)/u"


def _poly_str(p: tuple[int, ...], low: int) -> str:
    """Render sum of p[k] * u**(k+low) with non-negative k+low."""
    parts = []
    for k, c in enumerate(p):
        if not c:
            continue
        e = k + low
        mag = abs(c)
        if e == 0:
            body = str(mag)
        else:
            upart = "u" if e == 1 else f"u^{e}"
            body = upart if mag == 1 else f"{mag}{upart}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f" + {body}" if c > 0 else f" - {body}")
    return "".join(parts) if parts else "0"


def _is_atom(p: tuple[int, ...], low: int) -> bool:
    """True when the rendering of (p, low) needs no parentheses inside a
    fraction: a bare positive integer, or u**k with unit coefficient."""
    terms = [(k + low, c) for k, c in enumerate(p) if c]
    if len(terms) != 1:
        return False
    e, c = terms[0]
    return c == 1 if e else c > 0


def format_scalar(x: Scalar) -> str:
    if not x.n:
        return "0"
    num_low = max(x.s, 0)
    den_low = max(-x.s, 0)
    ns = _poly_str(x.n, num_low)
    if x.d == (1,) and den_low == 0:
        return ns
    ds = _poly_str(x.d, den_low)
    if sum(1 for c in x.n if c) > 1:
        ns = f"({ns})"
    if not _is_atom(x.d, den_low):
        ds = f"({ds})"
    return f"{ns}/{ds}"


# Limits on parsed text, so that hostile input such as "(1+u)^100000" fails
# at once: the magnitude of an exponent, the degree of a numerator or
# denominator (powers of u excluded; they are free) and the bit length of a
# coefficient.  Degrees are bounded before each operation, as gcd work grows
# steeply with them.  The engine prints degrees under 20 and small integers.
MAX_PARSE_EXPONENT = 100_000
MAX_PARSE_DEGREE = 64
MAX_PARSE_BITS = 256
_BITS_ERROR = f"scalar text exceeds the coefficient limit of {MAX_PARSE_BITS} bits"
_PARSE_OPS = {
    "+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv, "^": operator.pow
}


def _bounded(op: str, v: Scalar, w) -> Scalar:
    """v op w for op in "+-*/^" (w an int for "^") within the MAX_PARSE_* limits."""
    span = max(len(v.n), len(v.d)) - 1
    bits = 0.0
    if op == "^":
        if abs(w) > MAX_PARSE_EXPONENT:
            raise ValueError(f"exponent {w} exceeds the limit {MAX_PARSE_EXPONENT}")
        # p**k has k times the degree of p, and coefficients below |p|_1**k
        degree = abs(w) * span
        bits = abs(w) * math.log2(max(sum(map(abs, v.n)), sum(map(abs, v.d))))
    else:
        degree = span + max(len(w.n), len(w.d)) - 1
        if op in "+-" and v.n and w.n:
            degree += abs(v.s - w.s)
    if degree > MAX_PARSE_DEGREE:
        raise ValueError(f"scalar text exceeds the degree limit {MAX_PARSE_DEGREE}")
    if bits > MAX_PARSE_BITS:
        raise ValueError(_BITS_ERROR)
    try:
        out = _PARSE_OPS[op](v, w)
    except ZeroDivisionError:
        raise ValueError("division by zero in scalar text") from None
    if max(abs(c).bit_length() for c in out.n + out.d) > MAX_PARSE_BITS:
        raise ValueError(_BITS_ERROR)
    return out


_TOKEN = re.compile(r"\s*(\d+|u|\^|\+|-|\*|/|\(|\))")


def _tokenize(text: str) -> list[str]:
    out, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ValueError(f"bad character in scalar text: {text[pos:]!r}")
            break
        out.append(m.group(1))
        pos = m.end()
    return out


class _Parser:
    def __init__(self, tokens: list[str]):
        self.toks = tokens
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        self.i += 1
        return t

    def parse(self) -> Scalar:
        v = self.expr()
        if self.peek() is not None:
            raise ValueError(f"trailing tokens in scalar text: {self.toks[self.i:]}")
        return v

    def expr(self) -> Scalar:
        v = self.term()
        while self.peek() in ("+", "-"):
            op = self.next()
            w = self.term()
            v = _bounded(op, v, w)
        return v

    def term(self) -> Scalar:
        v = self.factor()
        while True:
            t = self.peek()
            if t in ("*", "/"):
                self.next()
                w = self.factor()
                v = _bounded(t, v, w)
            elif t == "u" or t == "(":
                v = _bounded("*", v, self.factor())  # juxtaposition, e.g. "3u^2"
            else:
                return v

    def factor(self) -> Scalar:
        neg = False
        while self.peek() == "-":
            self.next()
            neg = not neg
        v = self.atom()
        if self.peek() == "^":
            self.next()
            sign = 1
            while self.peek() == "-":
                self.next()
                sign = -sign
            t = self.next()
            if t is None or not t.isdigit():
                raise ValueError("exponent must be an integer")
            v = _bounded("^", v, sign * int(t))
        return -v if neg else v

    def atom(self) -> Scalar:
        t = self.next()
        if t is None:
            raise ValueError("unexpected end of scalar text")
        if t.isdigit():
            return _bounded("*", Scalar.from_int(int(t)), ONE)
        if t == "u":
            return MU
        if t == "(":
            v = self.expr()
            if self.next() != ")":
                raise ValueError("unbalanced parenthesis in scalar text")
            return v
        raise ValueError(f"unexpected token {t!r} in scalar text")


def parse_scalar(text: str) -> Scalar:
    """Parse the text form produced by format_scalar (round-trips exactly).

    Raises ValueError on malformed text, on a division by zero and on text
    past the MAX_PARSE_* limits above."""
    return _Parser(_tokenize(text)).parse()
