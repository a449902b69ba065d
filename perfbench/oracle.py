"""Correctness oracle for the benchmark, independent of the package under test.

Nothing here imports ncgeo.  The oracle reads the package's outputs only in
their public text form (the JSON of witnesses, certificates, bases, crossed
elements and reports) and checks them against facts written down here from
the paper:

* the coefficient stencils of the four differentials, taken from their
  recurrences (``STENCILS``);
* the five projection formulas and the definitions of the trace tau, the
  four parity traces psi_ij and the degree-2 cocycle Phi (``crossed_*``);
* the recorded pairing values of the itemized list (``RECORDED_PAIRINGS``).

Scalars are compared by evaluating them at seeded random points u of the
prime field F_P, P = 2**61 - 1.  A rational function of u that vanishes at
a random point is zero except with probability about deg/P, so "zero at the
point" is an exact test up to that chance; "nonzero" is established by one
point where the value is nonzero.  Exact inputs that the benchmark builds
itself (coboundary targets, cocycles) are Laurent polynomials in u held as
``{exponent: int}`` dicts, so the stencils act on them exactly as well.
"""

from __future__ import annotations

import re

P = (1 << 61) - 1


class OracleError(AssertionError):
    """An output of the program failed an independent check."""


# ---------------------------------------------------------------------------
# Laurent polynomials {exponent of u: integer coefficient}


def lp(*terms: tuple[int, int]) -> dict[int, int]:
    """Laurent polynomial from (exponent, coefficient) terms; zeros dropped."""
    out: dict[int, int] = {}
    for e, c in terms:
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def lp_mul(a: dict[int, int], b: dict[int, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def lp_add_into(acc: dict, key, p: dict[int, int]) -> None:
    cur = acc.setdefault(key, {})
    for e, c in p.items():
        v = cur.get(e, 0) + c
        if v:
            cur[e] = v
        else:
            cur.pop(e, None)
    if not cur:
        del acc[key]


# ---------------------------------------------------------------------------
# evaluation at a point of F_P


class Point:
    """A residue u of F_P at which text forms and Laurent polynomials are
    evaluated.  ``Point(u).star()`` is the point 1/u, where the star
    involution u -> 1/u of a scalar is evaluated."""

    def __init__(self, u: int):
        u %= P
        if u in (0, 1, P - 1):
            raise ValueError("evaluation point must not be 0 or a square root of 1")
        self.u = u
        self.uinv = pow(u, P - 2, P)
        self._pow: dict[int, int] = {}
        self._text: dict[str, int] = {}

    def star(self) -> "Point":
        return Point(self.uinv)

    def upow(self, e: int) -> int:
        v = self._pow.get(e)
        if v is None:
            v = pow(self.u, e, P) if e >= 0 else pow(self.uinv, -e, P)
            self._pow[e] = v
        return v

    def lam(self, k: int) -> int:
        return self.upow(2 * k)

    def laurent(self, p: dict[int, int]) -> int:
        return sum(c * self.upow(e) for e, c in p.items()) % P

    def text(self, s: str) -> int:
        """Value of a scalar's text form, such as ``(1 - u^2)/u``."""
        v = self._text.get(s)
        if v is None:
            v = _TextEval(s, self).value()
            self._text[s] = v
        return v


_TOKEN = re.compile(r"\s*(?:(\d+)|(u)|([-+*/^()]))")


class _TextEval:
    """Recursive descent over the text grammar: sums of products of
    integers, u, parenthesized groups and integer powers."""

    def __init__(self, s: str, pt: Point):
        self.pt = pt
        self.toks: list[str] = []
        pos = 0
        while pos < len(s):
            m = _TOKEN.match(s, pos)
            if m is None:
                if s[pos:].strip():
                    raise OracleError(f"unreadable scalar text {s!r}")
                break
            self.toks.append(m.group(m.lastindex))
            pos = m.end()
        self.i = 0

    def _peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def _next(self):
        t = self._peek()
        self.i += 1
        return t

    def value(self) -> int:
        v = self._expr()
        if self._peek() is not None:
            raise OracleError(f"trailing tokens in scalar text {self.toks!r}")
        return v

    def _expr(self) -> int:
        v = self._term()
        while self._peek() in ("+", "-"):
            sign = 1 if self._next() == "+" else -1
            v = (v + sign * self._term()) % P
        return v

    def _term(self) -> int:
        v = self._factor()
        while True:
            t = self._peek()
            if t == "*":
                self._next()
                v = v * self._factor() % P
            elif t == "/":
                self._next()
                d = self._factor()
                if d == 0:
                    raise OracleError("denominator vanishes at the evaluation point")
                v = v * pow(d, P - 2, P) % P
            elif t in ("u", "("):
                v = v * self._factor() % P
            else:
                return v

    def _factor(self) -> int:
        neg = False
        while self._peek() == "-":
            self._next()
            neg = not neg
        v = self._atom()
        if self._peek() == "^":
            self._next()
            sign = 1
            while self._peek() == "-":
                self._next()
                sign = -sign
            t = self._next()
            if t is None or not t.isdigit():
                raise OracleError("exponent must be an integer")
            e = sign * int(t)
            v = pow(v, e, P) if e >= 0 else pow(pow(v, P - 2, P), -e, P)
        return (-v) % P if neg else v

    def _atom(self) -> int:
        t = self._next()
        if t is None:
            raise OracleError("scalar text ends early")
        if t.isdigit():
            return int(t) % P
        if t == "u":
            return self.pt.u
        if t == "(":
            v = self._expr()
            if self._next() != ")":
                raise OracleError("unbalanced parenthesis in scalar text")
            return v
        raise OracleError(f"unexpected token {t!r} in scalar text")


# ---------------------------------------------------------------------------
# the four differentials, from the recurrences of the paper
#
#   twisted_alpha1: first[n,m]  = phi[n+1,m] - lambda^m phi[n-1,m]
#                   second[n,m] = lambda^-n phi[n,m+1] - phi[n,m-1]
#   twisted_alpha2: out[n,m] = lambda^-n f[n,m+1] - lambda f[n,m-1]
#                              - lambda g[n+1,m] + lambda^m g[n-1,m]
#   alpha1:         first[n,m]  = (1 - lambda^m) phi[n-1,m]
#                   second[n,m] = (lambda^n - 1) phi[n,m-1]
#   alpha2:         out[n,m] = (lambda^n - lambda) f[n,m-1]
#                              + (lambda^m - lambda) g[n-1,m]
#
# Each entry (out_slot, in_slot, dn, dm, coeff) adds coeff(n, m) times the
# input at (in_slot, n+dn, m+dm) to the output at (out_slot, n, m); coeff
# returns a Laurent polynomial in u (lambda = u^2).


class Stencil:
    def __init__(self, in_slots: int, out_slots: int, entries):
        self.in_slots = in_slots
        self.out_slots = out_slots
        self.entries = tuple(entries)

    def refs(self, out_slot: int, n: int, m: int):
        """Input sites one output equation reads: (in_slot, site, coeff)."""
        for o, i, dn, dm, coeff in self.entries:
            if o == out_slot:
                yield i, (n + dn, m + dm), coeff(n, m)

    def apply_exact(self, x: dict) -> dict:
        """Image of {(slot, n, m): Laurent} under the differential."""
        out: dict = {}
        for (i_slot, a, b), val in x.items():
            for o, i, dn, dm, coeff in self.entries:
                if i == i_slot:
                    n, m = a - dn, b - dm
                    lp_add_into(out, (o, n, m), lp_mul(coeff(n, m), val))
        return out

    def apply_mod(self, x: dict, pt: Point) -> dict:
        """Image of {(slot, n, m): residue} evaluated at pt."""
        out: dict = {}
        for (i_slot, a, b), val in x.items():
            for o, i, dn, dm, coeff in self.entries:
                if i == i_slot:
                    n, m = a - dn, b - dm
                    key = (o, n, m)
                    out[key] = (out.get(key, 0) + pt.laurent(coeff(n, m)) * val) % P
        return {k: v for k, v in out.items() if v}


STENCILS = {
    "twisted_alpha1": Stencil(1, 2, (
        (0, 0, 1, 0, lambda n, m: lp((0, 1))),
        (0, 0, -1, 0, lambda n, m: lp((2 * m, -1))),
        (1, 0, 0, 1, lambda n, m: lp((-2 * n, 1))),
        (1, 0, 0, -1, lambda n, m: lp((0, -1))),
    )),
    "twisted_alpha2": Stencil(2, 1, (
        (0, 0, 0, 1, lambda n, m: lp((-2 * n, 1))),
        (0, 0, 0, -1, lambda n, m: lp((2, -1))),
        (0, 1, 1, 0, lambda n, m: lp((2, -1))),
        (0, 1, -1, 0, lambda n, m: lp((2 * m, 1))),
    )),
    "alpha1": Stencil(1, 2, (
        (0, 0, -1, 0, lambda n, m: lp((0, 1), (2 * m, -1))),
        (1, 0, 0, -1, lambda n, m: lp((2 * n, 1), (0, -1))),
    )),
    "alpha2": Stencil(2, 1, (
        (0, 0, 0, -1, lambda n, m: lp((2 * n, 1), (2, -1))),
        (0, 1, -1, 0, lambda n, m: lp((2 * m, 1), (2, -1))),
    )),
}

EXPECTED_NULLITY = {"twisted_alpha1": 4, "alpha1": 1}


# ---------------------------------------------------------------------------
# reading the program's JSON


def series_json_terms(series_json: dict) -> dict:
    """{(n, m): text} from the JSON of a finite series."""
    return {(t["n"], t["m"]): t["c"] for t in series_json["terms"]}


def terms_of(series_json: dict, slot: int = 0) -> dict:
    """{(slot, n, m): text} from the JSON of a finite series."""
    return {(slot, *site): c for site, c in series_json_terms(series_json).items()}


def cochain_terms(obj_json: dict) -> dict:
    """{(slot, n, m): text} of a functional or a pair (first, second)."""
    if "terms" in obj_json:
        return terms_of(obj_json)
    return {**terms_of(obj_json["first"], 0), **terms_of(obj_json["second"], 1)}


def evaluate_terms(terms: dict, pt: Point) -> dict:
    out = {}
    for k, s in terms.items():
        v = pt.text(s)
        if v:
            out[k] = v
    return out


def inside(site, window: int) -> bool:
    return abs(site[0]) <= window and abs(site[1]) <= window


# ---------------------------------------------------------------------------
# checks of solver outputs


def _misses(op: str, witness_json: dict, target: dict, pt: Point) -> list:
    """Sites where stencil(witness) - target is nonzero at pt."""
    out = STENCILS[op].apply_mod(evaluate_terms(cochain_terms(witness_json), pt), pt)
    for key, val in target.items():
        out[key] = (out.get(key, 0) - pt.laurent(val)) % P
    return [k for k, v in out.items() if v]


def check_witness(op: str, witness_json: dict, target: dict, pts) -> None:
    """The witness maps exactly onto the target: stencil(witness) - target
    vanishes at every site, at every point."""
    for pt in pts:
        bad = _misses(op, witness_json, target, pt)
        if bad:
            raise OracleError(f"{op} witness misses its target at {min(bad)}")


def check_certificate(op: str, window: int, cert_json: list, target: dict, pts) -> None:
    """The equation combination annihilates every column of the windowed
    system and pairs nonzero with the target."""
    st = STENCILS[op]
    if not cert_json:
        raise OracleError("empty certificate")
    paired_nonzero = False
    for pt in pts:
        cols: dict = {}
        pairing = 0
        for e in cert_json:
            c = pt.text(e["c"])
            slot, n, m = e["slot"], e["n"], e["m"]
            for i_slot, site, coeff in st.refs(slot, n, m):
                if inside(site, window):
                    key = (i_slot, site)
                    cols[key] = (cols.get(key, 0) + c * pt.laurent(coeff)) % P
            t = target.get((slot, n, m))
            if t:
                pairing = (pairing + c * pt.laurent(t)) % P
        bad = [k for k, v in cols.items() if v]
        if bad:
            raise OracleError(f"{op} certificate leaves column {min(bad)} nonzero")
        paired_nonzero = paired_nonzero or pairing != 0
    if not paired_nonzero:
        raise OracleError(f"{op} certificate pairs to zero with the target")


def _rank_mod(rows: list[dict]) -> int:
    rows = [dict(r) for r in rows if r]
    rank = 0
    while rows:
        piv = rows.pop()
        if not piv:
            continue
        key = min(piv)
        inv = pow(piv[key], P - 2, P)
        rank += 1
        for r in rows:
            f = r.get(key)
            if f:
                f = f * inv % P
                for k, v in piv.items():
                    nv = (r.get(k, 0) - f * v) % P
                    if nv:
                        r[k] = nv
                    else:
                        r.pop(k, None)
        rows = [r for r in rows if r]
    return rank


def full_stencil(st: Stencil, key: tuple, window: int) -> bool:
    """Is the equation at key = (slot, n, m) imposed on a kernel system,
    that is, does it read only sites inside the window?"""
    return all(inside(site, window) for _, site, _ in st.refs(*key))


def check_kernel_basis(op: str, window: int, basis_json: list, pts) -> None:
    """Each basis vector lies in the window, satisfies every full-stencil
    equation, and the vectors are independent; their number is the
    kernel dimension the paper gives (4 twisted, 1 untwisted)."""
    st = STENCILS[op]
    want = EXPECTED_NULLITY[op]
    if len(basis_json) != want:
        raise OracleError(f"{op} kernel basis has {len(basis_json)} vectors, expected {want}")
    for pt in pts:
        vecs = []
        for vec_json in basis_json:
            vec = evaluate_terms(cochain_terms(vec_json), pt)
            if any(not inside((n, m), window) for _, n, m in vec):
                raise OracleError(f"{op} basis vector leaves the window")
            for key in st.apply_mod(vec, pt):
                if full_stencil(st, key, window):
                    raise OracleError(f"{op} basis vector fails the equation at {key}")
            vecs.append(vec)
        if _rank_mod(vecs) != want:
            raise OracleError(f"{op} kernel basis is not independent")


def check_h1(window: int, witness_json: dict, cocycle: dict, pts) -> None:
    """twisted_alpha1(witness) reproduces the cocycle at every interior site
    |n|, |m| <= window - 1."""
    for pt in pts:
        bad = [k for k in _misses("twisted_alpha1", witness_json, cocycle, pt) if inside(k[1:], window - 1)]
        if bad:
            raise OracleError(f"h1 witness leaves interior residual at {min(bad)}")


# ---------------------------------------------------------------------------
# the crossed product and its cocycles, from their definitions
#
# An element a + b*t is a pair of dicts {(n, m): residue}.  The torus
# product is (U1^p U2^q)(U1^r U2^s) = lambda^(q*r) U1^(p+r) U2^(q+s); the
# crossed product is (a + bt)(c + dt) = (ac + b sigma(d)) + (ad + b sigma(c))t
# with sigma(x)[n,m] = x[-n,-m]; the star is (c U1^n U2^m)* =
# star(c) lambda^(n*m) U1^-n U2^-m and (a + bt)* = a* + sigma(b*) t.

PROJECTIONS = {
    "one": ({(0, 0): "1"}, {}),
    "p": ({(0, 0): "1/2"}, {(0, 0): "1/2"}),
    "q0": ({(0, 0): "1/2"}, {(1, 0): "-1/2"}),
    "q1": ({(0, 0): "1/2"}, {(0, 1): "-1/2"}),
    "r": ({(0, 0): "1/2"}, {(1, 1): "-u/2"}),
}

PARITY_COLUMNS = {"S_D11": (1, 1), "S_D00": (0, 0), "S_D01": (0, 1), "S_D10": (1, 0)}
PAIRING_COLUMNS = ("S_tau", "S_D11", "S_D00", "S_D01", "S_D10", "phi")

# the itemized list of recorded pairings; every other cell is 0
RECORDED_PAIRINGS = {
    ("one", "S_tau"): "1",
    ("p", "S_tau"): "1/2",
    ("q0", "S_tau"): "1/2",
    ("q1", "S_tau"): "1/2",
    ("r", "S_tau"): "1/2",
    ("p", "S_D00"): "1/2",
    ("q0", "S_D10"): "-1/2",
    ("q1", "S_D01"): "-1/2",
    ("r", "S_D11"): "-u/2",
}


def crossed_from_json(x_json: dict) -> tuple[dict, dict]:
    return series_json_terms(x_json["even"]), series_json_terms(x_json["odd"])


def crossed_eval(x_text: tuple[dict, dict], pt: Point) -> tuple[dict, dict]:
    return tuple({k: v for k, s in part.items() if (v := pt.text(s))} for part in x_text)


def _tadd(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = (out.get(k, 0) + sign * v) % P
    return {k: v for k, v in out.items() if v}


def torus_mul(a: dict, b: dict, pt: Point) -> dict:
    out: dict = {}
    for (p, q), x in a.items():
        for (r, s), y in b.items():
            k = (p + r, q + s)
            out[k] = (out.get(k, 0) + pt.lam(q * r) * x * y) % P
    return {k: v for k, v in out.items() if v}


def _sigma(a: dict) -> dict:
    return {(-n, -m): v for (n, m), v in a.items()}


def crossed_mul(x: tuple, y: tuple, pt: Point) -> tuple[dict, dict]:
    a, b = x
    c, d = y
    return (
        _tadd(torus_mul(a, c, pt), torus_mul(b, _sigma(d), pt)),
        _tadd(torus_mul(a, d, pt), torus_mul(b, _sigma(c), pt)),
    )


def crossed_star(x_at_star: tuple, pt: Point) -> tuple[dict, dict]:
    """Star of x at pt, given x evaluated at pt.star() (coefficients pass
    through u -> 1/u)."""
    a, b = x_at_star

    def tstar(t: dict) -> dict:
        return {(-n, -m): v * pt.lam(n * m) % P for (n, m), v in t.items()}

    return tstar(a), _sigma(tstar(b))


def crossed_equal(x: tuple, y: tuple) -> bool:
    return all(not _tadd(px, py, -1) for px, py in zip(x, y))


def parity_trace(i: int, j: int, x: tuple, pt: Point) -> int:
    """psi_ij(a + bt) = sum over n = i, m = j (mod 2) of
    lambda^((ij - nm)/2) b[n,m]."""
    total = 0
    for (n, m), v in x[1].items():
        if n % 2 == i and m % 2 == j:
            total += pt.lam((i * j - n * m) // 2) * v
    return total % P


def trace(x: tuple) -> int:
    return x[0].get((0, 0), 0)


def _connes_torus(a: dict, b: dict, c: dict, pt: Point) -> int:
    """phi_C(a, b, c) = tau(a (delta1(b) delta2(c) - delta2(b) delta1(c)))."""
    def d1(t):
        return {(n, m): v * n % P for (n, m), v in t.items()}

    def d2(t):
        return {(n, m): v * m % P for (n, m), v in t.items()}

    inner = _tadd(torus_mul(d1(b), d2(c), pt), torus_mul(d2(b), d1(c), pt), -1)
    return torus_mul(a, inner, pt).get((0, 0), 0)


def connes(x0: tuple, x1: tuple, x2: tuple, pt: Point) -> int:
    """Phi(x0, x1, x2): the torus cocycle summed over group triples with
    product one, each argument twisted by the flips to its left."""
    (a0, b0), (a1, b1), (a2, b2) = x0, x1, x2
    return (
        _connes_torus(a0, a1, a2, pt)
        + _connes_torus(a0, b1, _sigma(b2), pt)
        + _connes_torus(b0, _sigma(a1), _sigma(b2), pt)
        + _connes_torus(b0, _sigma(b1), a2, pt)
    ) % P


def oracle_pairing(row: str, col: str, pt: Point) -> int:
    e = crossed_eval(PROJECTIONS[row], pt)
    if col == "S_tau":
        return trace(e)
    if col == "phi":
        return connes(e, e, e, pt)
    return parity_trace(*PARITY_COLUMNS[col], e, pt)


def check_projection(name: str, element_json: dict, pts) -> None:
    """The program's projection equals the formula, and the formula gives
    e*e = e and e* = e."""
    want = PROJECTIONS[name]
    got = crossed_from_json(element_json)
    for pt in pts:
        e = crossed_eval(want, pt)
        if not crossed_equal(crossed_eval(got, pt), e):
            raise OracleError(f"projection {name} differs from its formula")
        if not crossed_equal(crossed_mul(e, e, pt), e):
            raise OracleError(f"projection formula {name} is not idempotent")
        if not crossed_equal(crossed_star(crossed_eval(want, pt.star()), pt), e):
            raise OracleError(f"projection formula {name} is not self-adjoint")


def check_pairing_cell(row: str, col: str, value_text: str, pts) -> None:
    """A table cell equals the value computed from the projection formula,
    which in turn equals the recorded value."""
    recorded = RECORDED_PAIRINGS.get((row, col), "0")
    for pt in pts:
        want = oracle_pairing(row, col, pt)
        if want != pt.text(recorded):
            raise OracleError(f"oracle disagrees with the recorded value at {row}/{col}")
        if pt.text(value_text) != want:
            raise OracleError(f"pairing {row}/{col} = {value_text} is wrong")


def check_pairing_table(table_json: dict, pts) -> None:
    cells = {(c["row"], c["col"]): c["value"] for c in table_json["cells"]}
    expected = {(r, c) for r in PROJECTIONS for c in PAIRING_COLUMNS}
    if set(cells) != expected:
        raise OracleError("pairing table does not have the 5 x 6 cells")
    for (row, col), text in cells.items():
        check_pairing_cell(row, col, text, pts)


# ---------------------------------------------------------------------------
# negative controls: one coefficient changed


def bumped(text: str) -> str:
    """A scalar text whose value differs from text's by exactly 1."""
    return f"({text}) + 1"
