"""Command-line verification workflows and machine-readable reports.

Each command computes its checks and returns (report, ok, text lines, CSV
lines); ``main`` alone renders the chosen format, writes it once and sets
the exit code: 0 all checks pass, 1 mathematical mismatch, 2 usage error.
Every report embeds a header of the conventions it was computed under, so
a saved report is self-describing.  JSON is canonical (sorted keys, fixed
separators), so equal config and seed give equal bytes.  A CSV field that
holds a comma or a quote is quoted (RFC 4180).  The numeric channel is JSON
only, a cross-check that never influences exit codes.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import random
import sys

from .scalars import HALF, Scalar, mu_pow
from .torus import TorusElement, U1, U2
from .crossed import CrossedElement, PROJECTION_NAMES, is_projection, make_projection
from .cochains import (
    CochainPair,
    LatticeFunctional,
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

# Largest --window radius; at 32 each report command takes under half a second.
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
    """Write the report to --out or, flushed, to stdout; a destination that
    cannot be written, an empty --out path included, is a usage error.  A
    failed stdout is pointed at the null device, so that the flush at exit
    fails no more; a process started with descriptor 1 closed has no
    sys.stdout, and nothing to flush."""
    to_stdout = out_path is None
    try:
        if not to_stdout:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(payload)
        elif sys.stdout is None:
            raise OSError(errno.EBADF, os.strerror(errno.EBADF))
        else:
            sys.stdout.write(payload)
            sys.stdout.flush()
    except OSError as exc:
        if to_stdout and sys.stdout is not None:
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        where = "stdout" if to_stdout else f"--out {out_path}"
        sys.stderr.write(f"ncgeo: cannot write {where}: {exc.strerror or exc}\n")
        raise SystemExit(2) from None


def _to_json(report: dict) -> str:
    return json.dumps(report, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _mark(ok: bool) -> str:
    """Pass/fail word of a text line."""
    return "ok" if ok else "FAIL"


def _flag(ok: bool) -> str:
    """Pass/fail field of a CSV line."""
    return "true" if ok else "false"


def _csv(rows) -> list[str]:
    """CSV lines of rows of fields, a field quoted per RFC 4180 where it holds
    a comma or a quote."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue().splitlines()


def _numeric(value: Scalar, theta: float) -> list[float]:
    z = value.eval_numeric(theta)
    return [round(z.real, 12), round(z.imag, 12)]


def _window_list(text: str) -> list[int]:
    """Type of --window: comma-separated distinct radii, each an integer in [3, MAX_WINDOW]."""
    try:
        windows = [int(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"window radii must be comma-separated integers, got {text!r}"
        ) from None
    if any(w < 3 or w > MAX_WINDOW for w in windows):
        raise argparse.ArgumentTypeError(f"window radii must be integers from 3 to {MAX_WINDOW}")
    for k, w in enumerate(windows):
        if w in windows[:k]:
            raise argparse.ArgumentTypeError(f"window radius {w} is repeated")
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


def cmd_verify_projections(args) -> tuple[dict, bool, list[str], list[str]]:
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
    text = [f"{c['name']}: {_mark(c['ok'])}" for c in checks]
    text.append(f"{sum(c['ok'] for c in checks)}/{len(checks)} projections verified")
    lines = _csv([("name", "ok"), *((c["name"], _flag(c["ok"])) for c in checks)])
    return report, all_ok, text, lines


# -- pairing-table ------------------------------------------------------------


def cmd_pairing_table(args) -> tuple[dict, bool, list[str], list[str]]:
    table = pairing_mod.build_table()
    all_text_ok = all(
        table.agrees_text(row, col) for row in table.rows for col in table.cols
    )
    report = {
        "header": DESIGN_HEADER,
        "command": "pairing-table",
        "all_text_ok": all_text_ok,
        **table.to_json(),
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
    text = table.to_text(annotate=args.annotate).splitlines()
    return report, all_text_ok, text, table.to_csv().splitlines()


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


def cmd_dimension_report(args) -> tuple[dict, bool, list[str], list[str]]:
    reports = _kernel_rows(args.window, with_basis=True)
    all_ok = all(r["ok"] for r in reports)
    report = {
        "header": DESIGN_HEADER,
        "command": "dimension-report",
        "reports": reports,
        "all_ok": all_ok,
    }
    text = [
        f"{r['operator']} window {r['window']}: nullity {r['nullity']}"
        f" (expected {r['expected']}) {_mark(r['ok'])}"
        for r in reports
    ]
    lines = _csv([
        ("operator", "window", "nullity", "expected", "ok"),
        *(
            (r["operator"], r["window"], r["nullity"], r["expected"], _flag(r["ok"]))
            for r in reports
        ),
    ])
    return report, all_ok, text, lines


# -- cohomology-report --------------------------------------------------------

# membership probes: (complex, site, engine-expected status, note)
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
    # randrange(a, b + 1) is the draw randint(a, b) makes, without its call
    for _ in range(rng.randrange(1, max_sites + 1)):
        n = rng.randrange(-radius, radius + 1)
        m = rng.randrange(-radius, radius + 1)
        k = rng.randrange(-3, 4)
        terms[(n, m)] = Scalar(k, (rng.choice([1, -1, 2, -2]),))
    return LatticeFunctional(terms)


def _generator_sections(window: int) -> tuple[list, list]:
    d = LatticeFunctional.delta
    lam_inv = mu_pow(-2)

    generator_checks = []
    for i in (0, 1):
        for j in (0, 1):
            ok = twisted_alpha1(make_D(i, j, window)).restrict(window - 1).is_zero()
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


def cmd_cohomology_report(args) -> tuple[dict, bool, list[str], list[str]]:
    rng = random.Random(args.seed)

    kernel_rows = _kernel_rows(args.window, with_basis=False)
    generator_checks, pullback_checks = _generator_sections(max(args.window))
    # one record per check: its CSV fields (section, name, computed,
    # expected, ok) and its text line
    records = [
        (
            ("kernel", f"{r['operator']}@{r['window']}", r["nullity"], r["expected"], r["ok"]),
            f"kernel {r['operator']} window {r['window']}: nullity {r['nullity']}"
            f" (expected {r['expected']}, quoted constant) {_mark(r['ok'])}",
        )
        for r in kernel_rows
    ]
    records += [
        (
            ("generator", r["name"], _flag(r["in_kernel"]), "true", r["ok"]),
            f"generator {r['name']}: in kernel {_mark(r['ok'])}",
        )
        for r in generator_checks
    ]
    records += [
        (
            ("pullback", r["name"], _flag(r["ok"]), "true", r["ok"]),
            f"pullback {r['name']}: {_mark(r['ok'])}",
        )
        for r in pullback_checks
    ]

    probe_rows = []
    for cx, site, expected, note in _PROBES:
        operator = "twisted_alpha2" if cx == "twisted" else "alpha2"
        for radius in _PROBE_RADII:
            status = coboundary_solve(LatticeFunctional.delta(*site), operator, radius).status
            ok = status == expected
            row = {
                "complex": cx,
                "site": list(site),
                "radius": radius,
                "status": status,
                "expected_status": expected,
                "ok": ok,
            }
            line = (
                f"probe {cx} delta{site} radius {radius}:"
                f" {status} (expected {expected}) {_mark(ok)}"
            )
            if note:
                row["source_note"] = note
                if radius == _PROBE_RADII[0]:
                    line += f"\n  note: {note}"
            probe_rows.append(row)
            records.append((("probe", f"{cx}@{site}@r{radius}", status, expected, ok), line))

    passed = 0
    for _ in range(args.h1_trials):
        phi = _random_functional(rng)
        rep = h1_trivialize(twisted_alpha1(phi), 10)
        if rep.status == "solved" and rep.residual.is_zero():
            passed += 1
    trials = args.h1_trials
    h1 = {
        "seed": args.seed,
        "window": 10,
        "trials": trials,
        "passed": passed,
        "ok": passed == trials,
    }
    records.append((
        ("h1", "trials", f"{passed}/{trials}", f"{trials}/{trials}", h1["ok"]),
        f"h1 trivialization: {passed}/{trials} zero residuals"
        f" (seed {args.seed}, window 10) {_mark(h1['ok'])}",
    ))

    all_ok = all(fields[-1] for fields, _ in records)
    report = {
        "header": DESIGN_HEADER,
        "command": "cohomology-report",
        "windows": args.window,
        "kernel_dimensions": kernel_rows,
        "generator_checks": generator_checks,
        "pullback_checks": pullback_checks,
        "membership_probes": probe_rows,
        "h1_trials": h1,
        "all_ok": all_ok,
    }
    lines = _csv([
        ("section", "name", "computed", "expected", "ok"),
        *((*fields[:-1], _flag(fields[-1])) for fields, _ in records),
    ])
    return report, all_ok, [line for _, line in records], lines


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
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "numeric", None) is not None and args.format != "json":
        parser.error("argument --numeric: the numeric channel is only in --format json")
    report, ok, text_lines, csv_lines = args.func(args)
    if args.format == "json":
        payload = _to_json(report)
    else:
        payload = "\n".join(csv_lines if args.format == "csv" else text_lines) + "\n"
    _emit(payload, args.out)
    return 0 if ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
