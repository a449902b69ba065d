"""Command-line verification workflows and machine-readable reports.

Every report embeds a header describing the conventions it was computed
under (exact scalar field, normalizations, pivot rule, windowing), so a
saved report is self-describing.  JSON output is canonicalized (sorted
keys, fixed separators); identical config and seed give byte-identical
bytes.  Exit codes: 0 all checks pass, 1 mathematical mismatch, 2 usage
error.  The numeric channel evaluates exact values at a chosen angle for
cross-checking and never influences exit codes.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys

from .scalars import HALF, Scalar, mu_pow
from .torus import TorusElement, U1, U2
from .crossed import CrossedElement, PROJECTION_NAMES, is_projection, make_projection
from .cochains import (
    CochainPair,
    LatticeFunctional,
    alpha2,
    make_D,
    twisted_alpha1,
    twisted_alpha2,
    twisted_pullback_deg2,
    untwisted_pullback_deg1,
    untwisted_pullback_deg2,
)
from .solver import coboundary_solve, h1_trivialize, kernel_dimension
from . import pairing as pairing_mod

GOLDEN_THETA = (math.sqrt(5) - 1) / 2

# Largest --window radius; at 32 each report command takes several seconds.
MAX_WINDOW = 32

DESIGN_HEADER = {
    "schema": "ncgeo/1",
    "scalars": "exact rational functions of the formal unit u; lambda = u^2",
    "star_phase": "(U1^n U2^m)* carries lambda^(n*m)",
    "pivot_rule": "unit pivots, variables ordered by (|n|+|m|, n, m) then slot",
    "windowing": "full-stencil for kernel systems; all reachable sites for membership",
    "connes_normalization": "1 (no angular factor, no group averaging)",
}


def _emit(payload: str, out_path: str | None) -> None:
    """Write the report; a path that cannot be written is a usage error."""
    if not out_path:
        sys.stdout.write(payload)
        return
    try:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(payload)
    except OSError as exc:
        sys.stderr.write(f"ncgeo: cannot write --out {out_path}: {exc.strerror or exc}\n")
        raise SystemExit(2) from None


def _to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _numeric(value: Scalar, theta: float) -> list[float]:
    z = value.eval_numeric(theta)
    return [round(z.real, 12), round(z.imag, 12)]


def _window_list(text: str) -> list[int]:
    """Type of --window: comma-separated radii, each an integer in [3, MAX_WINDOW]."""
    try:
        windows = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window radii must be comma-separated integers, got {text!r}"
        ) from None
    if any(w < 3 or w > MAX_WINDOW for w in windows):
        raise argparse.ArgumentTypeError(f"window radii must be integers from 3 to {MAX_WINDOW}")
    return windows


def _angle(text: str) -> float:
    """Type of --numeric: a finite angle with |THETA| <= 1e6."""
    try:
        theta = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"angle must be a number, got {text!r}") from None
    if not math.isfinite(theta) or abs(theta) > 1e6:
        raise argparse.ArgumentTypeError(f"angle must be finite with |THETA| <= 1e6, got {text!r}")
    return theta


def _trial_count(text: str) -> int:
    """Type of --h1-trials: a non-negative integer."""
    try:
        count = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"trial count must be an integer, got {text!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError("trial count must be >= 0")
    return count


# -- verify-projections -------------------------------------------------------


def _corrupted_r() -> CrossedElement:
    # square the twist instead of taking its root; the odd part then
    # contributes lambda/4 instead of 1/4 and idempotency fails
    lam = mu_pow(2)
    half = TorusElement.monomial(0, 0, HALF)
    return CrossedElement(half, (U1 * U2).scale(-(HALF * lam)))


def cmd_verify_projections(args) -> int:
    checks = []
    for name in PROJECTION_NAMES:
        e = _corrupted_r() if (args.corrupt_r and name == "r") else make_projection(name)
        pc = is_projection(e)
        entry = {
            "name": name,
            "ok": pc.ok,
            "idempotency_defect": pc.idempotency_defect.to_json(),
            "adjoint_defect": pc.adjoint_defect.to_json(),
        }
        if args.numeric is not None:
            worst = 0.0
            for part in (pc.idempotency_defect, pc.adjoint_defect):
                for half_elt in (part.even, part.odd):
                    for n, m in half_elt.support():
                        worst = max(worst, abs(half_elt.coeff(n, m).eval_numeric(args.numeric)))
            entry["numeric_defect"] = round(worst, 12)
        checks.append(entry)
    all_ok = all(c["ok"] for c in checks)
    report = {
        "header": DESIGN_HEADER,
        "command": "verify-projections",
        "checks": checks,
        "all_ok": all_ok,
    }
    if args.numeric is not None:
        report["numeric_theta"] = args.numeric

    if args.format == "json":
        payload = _to_json(report)
    elif args.format == "csv":
        lines = ["name,ok"]
        lines += [f"{c['name']},{str(c['ok']).lower()}" for c in checks]
        payload = "\n".join(lines) + "\n"
    else:
        lines = [f"{c['name']}: {'ok' if c['ok'] else 'FAIL'}" for c in checks]
        lines.append(f"{sum(c['ok'] for c in checks)}/{len(checks)} projections verified")
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0 if all_ok else 1


# -- pairing-table ------------------------------------------------------------


def cmd_pairing_table(args) -> int:
    table = pairing_mod.build_table()
    all_text_ok = all(
        table.agrees_text(row, col) for row in table.rows for col in table.cols
    )
    if args.format == "json":
        body = table.to_json()
        report = {
            "header": DESIGN_HEADER,
            "command": "pairing-table",
            "all_text_ok": all_text_ok,
            **body,
        }
        if args.annotate:
            report["discrepancies"] = table.discrepancies()
        if args.numeric is not None:
            report["numeric_theta"] = args.numeric
            report["numeric_cells"] = [
                {"row": row, "col": col, "value": _numeric(table.value(row, col), args.numeric)}
                for row in table.rows
                for col in table.cols
            ]
        payload = _to_json(report)
    elif args.format == "csv":
        payload = table.to_csv()
    else:
        payload = table.to_text(annotate=args.annotate)
    _emit(payload, args.out)
    return 0 if all_text_ok else 1


# -- dimension-report ---------------------------------------------------------

EXPECTED_NULLITY = {"twisted_alpha1": 4, "alpha1": 1}


def _kernel_rows(windows: list[int], with_basis: bool) -> list[dict]:
    rows = []
    for operator in ("twisted_alpha1", "alpha1"):
        for window in windows:
            rep = kernel_dimension(operator, window)
            expected = EXPECTED_NULLITY[operator]
            row = {
                "operator": operator,
                "window": window,
                "nullity": rep.nullity,
                "expected": expected,
                "ok": rep.nullity == expected,
            }
            if with_basis:
                row["basis"] = [vec.to_json() for vec in rep.basis]
            rows.append(row)
    return rows


def cmd_dimension_report(args) -> int:
    reports = _kernel_rows(args.window, with_basis=True)
    all_ok = all(r["ok"] for r in reports)
    report = {
        "header": DESIGN_HEADER,
        "command": "dimension-report",
        "reports": reports,
        "all_ok": all_ok,
    }
    if args.format == "json":
        payload = _to_json(report)
    elif args.format == "csv":
        lines = ["operator,window,nullity,expected,ok"]
        lines += [
            f"{r['operator']},{r['window']},{r['nullity']},{r['expected']},{str(r['ok']).lower()}"
            for r in reports
        ]
        payload = "\n".join(lines) + "\n"
    else:
        lines = [
            f"{r['operator']} window {r['window']}: nullity {r['nullity']}"
            f" (expected {r['expected']}) {'ok' if r['ok'] else 'FAIL'}"
            for r in reports
        ]
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0 if all_ok else 1


# -- cohomology-report --------------------------------------------------------

# membership probes: (label, complex, site, engine-expected status, note)
_PROBES = (
    ("untwisted", (0, 2), "solved", None),
    ("untwisted", (2, 0), "solved", None),
    ("twisted", (0, 0), "unsolvable", None),
    ("twisted", (1, 0), "unsolvable", None),
    ("twisted", (0, 1), "unsolvable", None),
    ("twisted", (1, 1), "unsolvable", None),
    ("untwisted", (1, 1), "unsolvable", None),
    (
        "untwisted",
        (-1, -1),
        "solved",
        "recorded sources list this site as the non-image generator; in the "
        "coefficient indexing used here that generator sits at (1,1), and the "
        "(-1,-1) delta has the explicit preimage (delta(-1,-2)/(u^-2 - u^2), 0)",
    ),
)

_PROBE_RADII = (4, 5, 6)


def _random_functional(rng: random.Random, radius: int = 8, max_sites: int = 8):
    terms = {}
    for _ in range(rng.randint(1, max_sites)):
        n = rng.randint(-radius, radius)
        m = rng.randint(-radius, radius)
        terms[(n, m)] = mu_pow(rng.randint(-3, 3)) * rng.choice([1, -1, 2, -2])
    return LatticeFunctional(terms)


def _generator_sections(window: int) -> tuple[list, list]:
    d = LatticeFunctional.delta
    lam = mu_pow(2)
    lam_inv = mu_pow(-2)

    generator_checks = []
    for i in (0, 1):
        for j in (0, 1):
            image = twisted_alpha1(make_D(i, j), radius=window)
            ok = image.restrict(window - 1).is_zero()
            generator_checks.append(
                {"name": f"D{i}{j}", "window": window, "in_kernel": ok, "ok": ok}
            )

    # class scaling of the twisted degree-2 pullback: pb(delta) - lambda^-1
    # delta must be exactly the listed coboundary
    witnesses = {
        (0, 0): None,
        (1, 0): CochainPair(LatticeFunctional.zero(), d(0, 0, -lam_inv)),
        (0, 1): CochainPair(d(0, 0, lam_inv * lam_inv), LatticeFunctional.zero()),
        (1, 1): CochainPair(d(-1, 0, lam_inv * lam_inv), d(0, 1, -(lam_inv * lam_inv))),
    }
    pullback_checks = []
    for (i, j), wit in witnesses.items():
        target = d(i, j)
        diff = twisted_pullback_deg2(target) - target.scale(lam_inv)
        ok = diff.is_zero() if wit is None else diff == twisted_alpha2(wit)
        pullback_checks.append(
            {"name": f"twisted_deg2_scaling_{i}{j}", "scale": "1/lambda", "ok": ok}
        )
    fixed = untwisted_pullback_deg2(d(-1, -1)) == d(-1, -1)
    pullback_checks.append({"name": "untwisted_deg2_fixes_(-1,-1)", "ok": fixed})
    for name, gen in (
        ("untwisted_deg1_negates_first", CochainPair(d(-1, 0), LatticeFunctional.zero())),
        ("untwisted_deg1_negates_second", CochainPair(LatticeFunctional.zero(), d(0, -1))),
    ):
        ok = untwisted_pullback_deg1(gen) == CochainPair(-gen.first, -gen.second)
        pullback_checks.append({"name": name, "ok": ok})
    return generator_checks, pullback_checks


def cmd_cohomology_report(args) -> int:
    windows = args.window
    rng = random.Random(args.seed)

    kernel_rows = _kernel_rows(windows, with_basis=False)
    generator_checks, pullback_checks = _generator_sections(max(windows))

    probe_rows = []
    d = LatticeFunctional.delta
    for cx, site, expected_status, note in _PROBES:
        operator = "twisted_alpha2" if cx == "twisted" else "alpha2"
        for radius in _PROBE_RADII:
            rep = coboundary_solve(d(*site), operator, radius)
            row = {
                "complex": cx,
                "site": list(site),
                "radius": radius,
                "status": rep.status,
                "expected_status": expected_status,
                "ok": rep.status == expected_status,
            }
            if note:
                row["source_note"] = note
            probe_rows.append(row)

    passed = 0
    for _ in range(args.h1_trials):
        phi = _random_functional(rng)
        rep = h1_trivialize(twisted_alpha1(phi), 10)
        if rep.status == "solved" and rep.residual.is_zero():
            passed += 1
    h1_section = {
        "seed": args.seed,
        "window": 10,
        "trials": args.h1_trials,
        "passed": passed,
        "ok": passed == args.h1_trials,
    }

    all_ok = (
        all(r["ok"] for r in kernel_rows)
        and all(r["ok"] for r in generator_checks)
        and all(r["ok"] for r in pullback_checks)
        and all(r["ok"] for r in probe_rows)
        and h1_section["ok"]
    )
    report = {
        "header": DESIGN_HEADER,
        "command": "cohomology-report",
        "windows": windows,
        "kernel_dimensions": kernel_rows,
        "generator_checks": generator_checks,
        "pullback_checks": pullback_checks,
        "membership_probes": probe_rows,
        "h1_trials": h1_section,
        "all_ok": all_ok,
    }

    if args.format == "json":
        payload = _to_json(report)
    elif args.format == "csv":
        lines = ["section,name,computed,expected,ok"]
        for r in kernel_rows:
            lines.append(
                f"kernel,{r['operator']}@{r['window']},{r['nullity']},{r['expected']},"
                f"{str(r['ok']).lower()}"
            )
        for r in generator_checks:
            lines.append(f"generator,{r['name']},{str(r['in_kernel']).lower()},true,{str(r['ok']).lower()}")
        for r in pullback_checks:
            lines.append(f"pullback,{r['name']},{str(r['ok']).lower()},true,{str(r['ok']).lower()}")
        for r in probe_rows:
            name = f"{r['complex']}@{tuple(r['site'])}@r{r['radius']}"
            lines.append(f"probe,{name},{r['status']},{r['expected_status']},{str(r['ok']).lower()}")
        lines.append(
            f"h1,trials,{h1_section['passed']}/{h1_section['trials']},"
            f"{h1_section['trials']}/{h1_section['trials']},{str(h1_section['ok']).lower()}"
        )
        payload = "\n".join(lines) + "\n"
    else:
        lines = []
        for r in kernel_rows:
            lines.append(
                f"kernel {r['operator']} window {r['window']}: nullity {r['nullity']}"
                f" (expected {r['expected']}, quoted constant) {'ok' if r['ok'] else 'FAIL'}"
            )
        for r in generator_checks:
            lines.append(f"generator {r['name']}: in kernel {'ok' if r['ok'] else 'FAIL'}")
        for r in pullback_checks:
            lines.append(f"pullback {r['name']}: {'ok' if r['ok'] else 'FAIL'}")
        for r in probe_rows:
            mark = "ok" if r["ok"] else "FAIL"
            lines.append(
                f"probe {r['complex']} delta{tuple(r['site'])} radius {r['radius']}:"
                f" {r['status']} (expected {r['expected_status']}) {mark}"
            )
            if r.get("source_note") and r["radius"] == _PROBE_RADII[0]:
                lines.append(f"  note: {r['source_note']}")
        lines.append(
            f"h1 trivialization: {h1_section['passed']}/{h1_section['trials']} zero residuals"
            f" (seed {h1_section['seed']}, window 10) {'ok' if h1_section['ok'] else 'FAIL'}"
        )
        payload = "\n".join(lines) + "\n"
    _emit(payload, args.out)
    return 0 if all_ok else 1


# -- argument parsing ---------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("text", "json", "csv"), default="text")
    sub.add_argument("--out", default=None, help="write the report to this path")


def _add_numeric(sub: argparse.ArgumentParser) -> None:
    """The numeric channel, on the two commands whose reports carry it."""
    sub.add_argument(
        "--numeric",
        nargs="?",
        type=_angle,
        const=GOLDEN_THETA,
        default=None,
        metavar="THETA",
        help="add a numeric cross-check column at this angle (never gates exit codes)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ncgeo",
        description="exact verification workflows for the flip-orbifold computations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("verify-projections", help="check the five standard projections")
    _add_common(sp)
    _add_numeric(sp)
    sp.add_argument(
        "--corrupt-r",
        action="store_true",
        help="negative control: square the twist phase in r and expect failure",
    )
    sp.set_defaults(func=cmd_verify_projections)

    sp = sub.add_parser("pairing-table", help="compute the thirty pairings")
    _add_common(sp)
    _add_numeric(sp)
    sp.add_argument("--annotate", action="store_true", help="include disagreement flags")
    sp.set_defaults(func=cmd_pairing_table)

    sp = sub.add_parser("dimension-report", help="windowed kernel dimensions")
    _add_common(sp)
    sp.add_argument("--window", type=_window_list, default="4", metavar="N[,N...]")
    sp.set_defaults(func=cmd_dimension_report)

    sp = sub.add_parser("cohomology-report", help="kernel, pullback, membership, h1 checks")
    _add_common(sp)
    sp.add_argument("--window", type=_window_list, default="4", metavar="N[,N...]")
    sp.add_argument("--seed", type=int, default=7)
    sp.add_argument("--h1-trials", type=_trial_count, default=100)
    sp.set_defaults(func=cmd_cohomology_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
