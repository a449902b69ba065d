"""The benchmark's workloads: inputs made from a seed, the operations of one
pass, and the check each output must pass.

Every workload is a fixed list of operations.  A run repeats the whole list
(a pass) until its time is up, so every run attempts whole passes of the
same operations.  Inputs are generated once per run from the seed; the
package sees only those inputs, through its public functions.  Outputs are
checked by the independent oracle in ``oracle.py`` and against properties
the method must have; nothing is compared with a saved copy of an earlier
output.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from typing import Callable

import ncgeo
import ncgeo.cli
import ncgeo.crossed
import ncgeo.pairing
import ncgeo.solver

import oracle
from oracle import OracleError, bumped, lp


@dataclass
class Op:
    """One operation: ``run`` calls the package, ``check`` raises
    OracleError when the output is wrong, ``controls`` lists negative
    controls on the output: checks of a corrupted copy that must fail."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object, list], None]
    controls: Callable[[object, list], list] = lambda out, pts: []


# ---------------------------------------------------------------------------
# seeded exact inputs: Laurent polynomials {exponent of u: int} per site


def _rand_coeff(rng: random.Random) -> dict[int, int]:
    return lp((rng.randint(-3, 3), rng.choice((1, -1, 2, -2))))


# Inputs have a fixed number of sites, so that the work of a pass varies
# little from seed to seed.


def _rand_sites(rng: random.Random, slots: int, radius: int, sites: int) -> list[tuple]:
    out: set = set()
    while len(out) < sites:
        out.add((rng.randrange(slots), rng.randint(-radius, radius), rng.randint(-radius, radius)))
    return sorted(out)


def _rand_cochain(rng: random.Random, slots: int, radius: int, sites: int) -> dict:
    return {key: _rand_coeff(rng) for key in _rand_sites(rng, slots, radius, sites)}


def _rand_series(rng: random.Random, radius: int, terms: int) -> dict:
    out: dict = {}
    while len(out) < terms:
        site = (rng.randint(-radius, radius), rng.randint(-radius, radius))
        # a monomial, or a binomial so that products meet non-unit numerators
        c = _rand_coeff(rng)
        if rng.random() < 0.3:
            c = lp(*c.items(), (rng.randint(-2, 2), rng.choice((1, -1))))
        if c:
            out[site] = c
    return out


def _scalar(p: dict[int, int]) -> ncgeo.Scalar:
    lo, hi = min(p), max(p)
    return ncgeo.Scalar(lo, tuple(p.get(e, 0) for e in range(lo, hi + 1)))


def _functional(x: dict, slot: int = 0) -> ncgeo.LatticeFunctional:
    return ncgeo.LatticeFunctional(
        {(n, m): _scalar(c) for (s, n, m), c in x.items() if s == slot}
    )


def _cochain(x: dict, slots: int):
    """Program object for an exact cochain: a functional or a pair."""
    if slots == 1:
        return _functional(x)
    return ncgeo.CochainPair(_functional(x, 0), _functional(x, 1))


def _torus(series: dict) -> ncgeo.TorusElement:
    return ncgeo.TorusElement({site: _scalar(c) for site, c in series.items()})


# ---------------------------------------------------------------------------
# solver operations


def _pick_effective(op: str, terms: dict) -> tuple:
    """A term of a solver output whose unit vector the stencil does not
    kill, so changing its coefficient changes the image."""
    st = oracle.STENCILS[op]
    for key in sorted(terms):
        if st.apply_exact({key: lp((0, 1))}):
            return key
    raise OracleError(f"{op} output has no coefficient that reaches the image")


def _bump_cochain(obj_json: dict, key: tuple, text: str | None = None) -> dict:
    """Copy of a functional or pair JSON with the coefficient at key raised
    by 1, or replaced by text."""
    out = json.loads(json.dumps(obj_json))
    slot, n, m = key
    series = out if "terms" in out else out[("first", "second")[slot]]
    for t in series["terms"]:
        if (t["n"], t["m"]) == (n, m):
            t["c"] = bumped(t["c"]) if text is None else text
    return out


def kernel_op(op: str, window: int) -> Op:
    def run():
        return ncgeo.solver.kernel_dimension(op, window)

    def check(rep, pts):
        data = rep.to_json()
        if data["status"] != "kernel-basis" or data["nullity"] != oracle.EXPECTED_NULLITY[op]:
            raise OracleError(f"{op} window {window}: nullity {data['nullity']}")
        oracle.check_kernel_basis(op, window, data["basis"], pts)

    def controls(rep, pts):
        # raise a coefficient whose column meets an imposed equation; a
        # vector without one (the single delta of the alpha1 kernel) has
        # its coefficient zeroed, which breaks the rank instead
        basis = rep.to_json()["basis"]
        st = oracle.STENCILS[op]
        for key in sorted(oracle.cochain_terms(basis[0])):
            image = st.apply_exact({key: lp((0, 1))})
            if any(oracle.full_stencil(st, k, window) for k in image):
                bad = [_bump_cochain(basis[0], key)] + basis[1:]
                break
        else:
            bad = [_bump_cochain(basis[0], key, "0")] + basis[1:]
        return [("basis vector", lambda: oracle.check_kernel_basis(op, window, bad, pts))]

    return Op("kernel", run, check, controls)


def solved_op(op: str, window: int, source: dict) -> Op:
    """Membership of a coboundary built by the benchmark: target =
    stencil(source), so the status must be "solved"."""
    st = oracle.STENCILS[op]
    target = st.apply_exact(source)
    obj = _cochain(target, st.out_slots)

    def run():
        return ncgeo.solver.coboundary_solve(obj, op, window)

    def check(rep, pts):
        if rep.status != "solved":
            raise OracleError(f"{op} radius {window}: coboundary reported {rep.status}")
        oracle.check_witness(op, rep.witness.to_json(), target, pts)

    def controls(rep, pts):
        wj = rep.witness.to_json()
        bad = _bump_cochain(wj, _pick_effective(op, oracle.cochain_terms(wj)))
        return [("witness", lambda: oracle.check_witness(op, bad, target, pts))]

    return Op("solved", run, check, controls)


def refuted_op(op: str, window: int, site: tuple, coeff: dict) -> Op:
    """Membership of a scaled delta that is not a coboundary; the status
    must be "unsolvable" with a valid certificate."""
    target = {(0, *site): coeff}
    obj = _functional(target)

    def run():
        return ncgeo.solver.coboundary_solve(obj, op, window)

    def check(rep, pts):
        if rep.status != "unsolvable":
            raise OracleError(f"{op} delta{site} radius {window}: reported {rep.status}")
        oracle.check_certificate(op, window, rep.to_json()["certificate"], target, pts)

    def controls(rep, pts):
        cert = rep.to_json()["certificate"]
        st = oracle.STENCILS[op]
        bad = [dict(e) for e in cert]
        # raise a multiplier whose equation has a nonzero column in the
        # window; a certificate of one column-free equation is zeroed
        for e in bad:
            if any(c and oracle.inside(s, window) for _, s, c in st.refs(e["slot"], e["n"], e["m"])):
                e["c"] = bumped(e["c"])
                break
        else:
            bad[0]["c"] = "0"
        return [("certificate", lambda: oracle.check_certificate(op, window, bad, target, pts))]

    return Op("refuted", run, check, controls)


def h1_op(window: int, phi: dict) -> Op:
    """Constructive trivialization of the cocycle twisted_alpha1(phi)."""
    cocycle = oracle.STENCILS["twisted_alpha1"].apply_exact(phi)
    obj = _cochain(cocycle, 2)

    def run():
        return ncgeo.solver.h1_trivialize(obj, window)

    def check(rep, pts):
        data = rep.to_json()
        if data["status"] != "solved" or oracle.cochain_terms(data["residual"]):
            raise OracleError(f"h1 window {window}: nonzero residual")
        oracle.check_h1(window, data["witness"], cocycle, pts)

    def controls(rep, pts):
        wj = rep.witness.to_json()
        inner = [k for k in oracle.cochain_terms(wj) if max(abs(k[1]), abs(k[2])) <= window - 2]
        bad = _bump_cochain(wj, min(inner))
        return [("h1 witness", lambda: oracle.check_h1(window, bad, cocycle, pts))]

    return Op("h1", run, check, controls)


# ---------------------------------------------------------------------------
# algebra operations


def projection_op(name: str) -> Op:
    def run():
        e = ncgeo.crossed.make_projection(name)
        return e, ncgeo.crossed.is_projection(e)

    def check(out, pts):
        e, chk = out
        defects = (chk.idempotency_defect, chk.adjoint_defect)
        if not chk.ok or any(not d.is_zero() for d in defects):
            raise OracleError(f"projection {name} reported with defects")
        oracle.check_projection(name, e.to_json(), pts)

    return Op("projection", run, check)


def pairing_op(row: str, col: str) -> Op:
    def run():
        e = ncgeo.crossed.make_projection(row)
        return ncgeo.pairing.pair(e, ncgeo.pairing.COLUMN_COCYCLES[col])

    def check(value, pts):
        oracle.check_pairing_cell(row, col, str(value), pts)

    def controls(value, pts):
        bad = bumped(str(value))
        return [("pairing cell", lambda: oracle.check_pairing_cell(row, col, bad, pts))]

    return Op("pairing", run, check, controls)


def crossed_op(x: tuple, y: tuple, z: tuple) -> Op:
    """Products, star, the parity-trace identity psi(xy) = psi(yx) and the
    cyclic property Phi(x, y, z) = Phi(z, x, y) on seeded elements."""
    X, Y, Z = (ncgeo.CrossedElement(_torus(a), _torus(b)) for a, b in (x, y, z))
    parities = ((0, 0), (0, 1), (1, 0), (1, 1))

    def run():
        pairing = ncgeo.pairing
        xy, yx = X * Y, Y * X
        traces = [
            (pairing.evaluate(pairing.TwistedTrace(i, j), [xy]),
             pairing.evaluate(pairing.TwistedTrace(i, j), [yx]))
            for i, j in parities
        ]
        phi = pairing.ConnesTwoCocycle()
        cyclic = (pairing.evaluate(phi, [X, Y, Z]), pairing.evaluate(phi, [Z, X, Y]))
        return xy, yx, X.star(), traces, cyclic

    def exact(t, pt):
        return tuple({k: pt.laurent(c) for k, c in part.items()} for part in t)

    def check(out, pts):
        xy, yx, xstar, traces, cyclic = out
        for pt in pts:
            ox, oy, oz = exact(x, pt), exact(y, pt), exact(z, pt)
            oxy, oyx = oracle.crossed_mul(ox, oy, pt), oracle.crossed_mul(oy, ox, pt)
            for got, want, what in (
                (xy, oxy, "x*y"),
                (yx, oyx, "y*x"),
                (xstar, oracle.crossed_star(exact(x, pt.star()), pt), "star"),
            ):
                if not oracle.crossed_equal(oracle.crossed_eval(oracle.crossed_from_json(got.to_json()), pt), want):
                    raise OracleError(f"crossed {what} is wrong")
            for (i, j), (a, b) in zip(parities, traces):
                want = oracle.parity_trace(i, j, oxy, pt)
                if want != oracle.parity_trace(i, j, oyx, pt):
                    raise OracleError("oracle: parity trace identity fails")
                if pt.text(str(a)) != want or pt.text(str(b)) != want:
                    raise OracleError(f"psi_{i}{j}(xy) = psi_{i}{j}(yx) fails")
            want = oracle.connes(ox, oy, oz, pt)
            if want != oracle.connes(oz, ox, oy, pt):
                raise OracleError("oracle: cyclic property fails")
            if pt.text(str(cyclic[0])) != want or pt.text(str(cyclic[1])) != want:
                raise OracleError("Phi(x, y, z) = Phi(z, x, y) fails")

    def controls(out, pts):
        xy = out[0].to_json()
        t = (xy["even"] if xy["even"]["terms"] else xy["odd"])["terms"][0]
        t["c"] = bumped(t["c"])
        bad = (ncgeo.CrossedElement.from_json(xy),) + tuple(out[1:])
        return [("crossed product", lambda: check(bad, pts))]

    return Op("crossed", run, check, controls)


# ---------------------------------------------------------------------------
# command-line operations


def _cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = ncgeo.cli.main(argv)
    return rc, buf.getvalue()


def _load(out: tuple[int, str], command: str) -> dict:
    rc, text = out
    if rc != 0:
        raise OracleError(f"{command} exited {rc}")
    data = json.loads(text)
    if data.get("command") != command or data.get("all_ok", data.get("all_text_ok")) is not True:
        raise OracleError(f"{command} did not report success")
    return data


def _check_verify_projections(out, pts):
    data = _load(out, "verify-projections")
    names = [c["name"] for c in data["checks"]]
    if names != list(oracle.PROJECTIONS):
        raise OracleError("verify-projections does not list the five projections")
    for c in data["checks"]:
        defects = (c["idempotency_defect"], c["adjoint_defect"])
        if not c["ok"] or any(d[p]["terms"] for d in defects for p in ("even", "odd")):
            raise OracleError(f"projection {c['name']} reported with defects")


def _check_pairing_table(out, pts):
    oracle.check_pairing_table(_load(out, "pairing-table"), pts)


def _check_dimension_report(out, pts):
    data = _load(out, "dimension-report")
    ops = sorted(r["operator"] for r in data["reports"])
    if ops != ["alpha1", "twisted_alpha1"]:
        raise OracleError("dimension-report does not cover both differentials")
    for r in data["reports"]:
        oracle.check_kernel_basis(r["operator"], r["window"], r["basis"], pts)


# Membership statuses the paper gives for the probe deltas: the four parity
# classes of the twisted complex and the (1,1) class of the untwisted one
# are not coboundaries; the other probed deltas are.
PROBE_STATUS = {
    ("twisted", (0, 0)): "unsolvable",
    ("twisted", (1, 0)): "unsolvable",
    ("twisted", (0, 1)): "unsolvable",
    ("twisted", (1, 1)): "unsolvable",
    ("untwisted", (1, 1)): "unsolvable",
    ("untwisted", (0, 2)): "solved",
    ("untwisted", (2, 0)): "solved",
    ("untwisted", (-1, -1)): "solved",
}


def _check_cohomology_report(out, pts):
    data = _load(out, "cohomology-report")
    for r in data["kernel_dimensions"]:
        if r["nullity"] != oracle.EXPECTED_NULLITY[r["operator"]]:
            raise OracleError(f"{r['operator']} window {r['window']}: nullity {r['nullity']}")
    if len(data["generator_checks"]) != 4 or not all(
        r["ok"] for r in data["generator_checks"] + data["pullback_checks"]
    ):
        raise OracleError("generator or pullback checks failed")
    seen = set()
    for r in data["membership_probes"]:
        key = (r["complex"], tuple(r["site"]))
        seen.add(key)
        if r["status"] != PROBE_STATUS[key]:
            raise OracleError(f"probe {key} radius {r['radius']}: {r['status']}")
    if seen != set(PROBE_STATUS):
        raise OracleError("cohomology-report does not probe every delta")
    h1 = data["h1_trials"]
    if h1["trials"] < 1 or h1["passed"] != h1["trials"]:
        raise OracleError("h1 trials did not all trivialize")


def _status_flipped(out):
    rc, text = out
    data = json.loads(text)
    probe = data["membership_probes"][0]
    probe["status"] = "solved" if probe["status"] == "unsolvable" else "unsolvable"
    return rc, json.dumps(data)


def _basis_bumped(out):
    rc, text = out
    data = json.loads(text)
    vec = data["reports"][0]["basis"][0]
    data["reports"][0]["basis"][0] = _bump_cochain(vec, min(oracle.cochain_terms(vec)))
    return rc, json.dumps(data)


def _cell_bumped(out):
    rc, text = out
    data = json.loads(text)
    data["cells"][0]["value"] = bumped(data["cells"][0]["value"])
    return rc, json.dumps(data)


def cli_op(argv: list[str], check, corrupt=None, what: str = "") -> Op:
    def controls(out, pts):
        if corrupt is None:
            return []
        bad = corrupt(out)
        return [(what, lambda: check(bad, pts))]

    return Op("cli", lambda: _cli(argv), check, controls)


# ---------------------------------------------------------------------------
# the workloads


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    build: Callable[[random.Random, bool], list[Op]]


def _build_report(rng, small):
    cohomology = ["cohomology-report", "--format", "json"]
    if small:
        cohomology += ["--window", "3", "--h1-trials", "3"]
    return [
        cli_op(cohomology, _check_cohomology_report, _status_flipped, "probe status"),
        cli_op(["verify-projections", "--format", "json"], _check_verify_projections),
        cli_op(["pairing-table", "--format", "json"], _check_pairing_table, _cell_bumped, "pairing cell"),
        cli_op(["dimension-report", "--format", "json"], _check_dimension_report, _basis_bumped, "basis vector"),
    ]


def _build_solve(rng, small):
    windows = (3, 4) if small else range(4, 9)
    radii = (4,) if small else range(4, 8)
    ops = [kernel_op(op, w) for op in ("twisted_alpha1", "alpha1") for w in windows]
    for radius in radii:
        for op in ("twisted_alpha2", "alpha2"):
            # a stencil reaches one site, so sources within radius - 3 keep
            # the target two sites clear of the window edge
            source = {}
            while not oracle.STENCILS[op].apply_exact(source):
                source = _rand_cochain(rng, oracle.STENCILS[op].in_slots, radius - 3, 4)
            ops.append(solved_op(op, radius, source))
    cases = [("twisted_alpha2", s) for s in ((0, 0), (1, 0), (0, 1), (1, 1))]
    cases.append(("alpha2", (1, 1)))
    ops += [refuted_op(op, r, site, _rand_coeff(rng)) for op, site in cases for r in radii]
    rng.shuffle(ops)
    return ops


def _build_h1(rng, small):
    # (window, source radius, trials): the report's window 10 and a larger one
    plan = ((6, 4, 4), (8, 6, 2)) if small else ((10, 8, 300), (16, 14, 60))
    # The cost of a trial follows where its sites lie, which rows they share
    # and how far those rows are from the window's edge.  So the layouts of
    # the sites come from a generator of their own, the same for every seed,
    # and the work of a pass does not depend on the seed.  The seed draws
    # every coefficient and the order of the trials.
    layouts = random.Random("h1-layouts")
    ops = []
    for window, radius, trials in plan:
        for _ in range(trials):
            sites = _rand_sites(layouts, 1, radius, 8)
            ops.append(h1_op(window, {key: _rand_coeff(rng) for key in sites}))
    rng.shuffle(ops)
    return ops


def _build_algebra(rng, small):
    ops = [projection_op(name) for name in oracle.PROJECTIONS]
    ops += [pairing_op(r, c) for r in oracle.PROJECTIONS for c in oracle.PAIRING_COLUMNS]
    for _ in range(4 if small else 120):
        x, y, z = ((_rand_series(rng, 2, 3), _rand_series(rng, 2, 3)) for _ in range(3))
        ops.append(crossed_op(x, y, z))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload("report", "the four CLI commands at their defaults, as users run them; cohomology-report dominates, mostly membership solves", _build_report),
        Workload("solve", "kernel, solved and refuted windowed solves above the CLI sizes: Gauss-Jordan fill-in and Q(u) arithmetic", _build_solve),
        Workload("h1", "h1 trivialization of seeded cocycles at windows 10 and 16: differentials and monomials, never elimination", _build_h1),
        Workload("algebra", "projections, the 30 pairings and seeded crossed products, stars, traces and Phi: torus, crossed, pairing", _build_algebra),
    )
}


def build(name: str, seed: int, small: bool = False) -> list[Op]:
    """The operations of one pass of a workload, from its seed."""
    return WORKLOADS[name].build(random.Random(f"{name}:{seed}"), small)
