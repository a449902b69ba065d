#!/usr/bin/env python3
"""Benchmark of the ncgeo engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one child each
    python3 perfbench/run.py --smoke             # small sizes and negative controls

One run measures one workload in a single process, one caller at a time
(closed loop).  It repeats whole passes over the workload's fixed list of
operations until ``--seconds`` have gone by, checks every output with the
independent oracle, and prints, as its last line, one JSON object with the
keys correct, attempted, failed and metrics.  ``--trace 0`` reports the
end-to-end metrics, scaled to a reference host speed measured during the
run (``speed.py``); ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics, writing the spans to
``.perfbench-out/trace-<workload>-<seed>.tsv``.

The package is imported from ``src/`` of the checkout and nowhere else; a
directory without it makes the benchmark exit with an error.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"
SETUP_PROBES = 15
EVAL_POINTS = 2

END_TO_END = (("setup_s", "s"), ("peak_rss_mb", "MB"), ("pass_ref_s", "s"))


def import_package():
    """Import ncgeo from src/ of this checkout, never from elsewhere."""
    if not (SRC / "ncgeo" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import ncgeo

    if Path(ncgeo.__file__).resolve().parent != SRC / "ncgeo":
        sys.exit(f"perfbench: ncgeo was imported from {ncgeo.__file__}, not from {SRC}")
    return ncgeo


def points(seed: int):
    import oracle

    rng = random.Random(f"points:{seed}")
    return [oracle.Point(rng.randrange(2, oracle.P - 1)) for _ in range(EVAL_POINTS)]


# ---------------------------------------------------------------------------
# one pass


class Tally:
    """What a run has seen: pass times, attempts, failures and wrong
    outputs.  A pass time is net of the calibration units run inside it."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []


def run_pass(ops, tally: Tally, pts, tracer=None, sampler=None) -> list:
    """Time every operation once, traced when a tracer is given and with
    calibration units interleaved when a sampler is given, then check the
    outputs untraced.  Returns the outputs (None where an operation
    raised)."""
    gc.collect()
    outputs = []
    region = sampler if sampler is not None else contextlib.nullcontext()
    units_s = sampler.units_s if sampler is not None else 0.0
    if tracer is not None:
        tracer.install()
    try:
        with region:
            start = time.perf_counter()
            for op in ops:
                try:
                    out = op.run()
                except Exception as exc:  # an operation that fails is counted, not fatal
                    out = exc
                outputs.append(out)
            elapsed = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.uninstall()
    if sampler is not None:
        elapsed -= sampler.units_s - units_s
    tally.pass_s.append(elapsed)
    tally.attempted += len(ops)
    for op, out in zip(ops, outputs):
        if isinstance(out, Exception):
            tally.failed += 1
            print(f"perfbench: {op.kind} operation failed: {out!r}", file=sys.stderr)
            continue
        try:
            op.check(out, pts)
        except AssertionError as exc:
            tally.wrong.append(str(exc))
            print(f"perfbench: wrong output: {exc}", file=sys.stderr)
    return [None if isinstance(o, Exception) else o for o in outputs]


def run_controls(ops, outputs, pts) -> tuple[int, list[str]]:
    """Negative controls: each corrupted output must fail its check.
    Returns how many controls ran and those the oracle did not catch."""
    ran, missed = 0, []
    for op, out in zip(ops, outputs):
        if out is None:
            continue
        for what, thunk in op.controls(out, pts):
            ran += 1
            try:
                thunk()
            except AssertionError:
                continue
            missed.append(f"{op.kind}: changed {what} passed the oracle")
    for m in missed:
        print(f"perfbench: negative control missed: {m}", file=sys.stderr)
    return ran, missed


# ---------------------------------------------------------------------------
# measured runs


def setup_seconds(workload: str, seed: int) -> float:
    """Median over fresh interpreters of importing ncgeo and building the
    workload's inputs, at the reference speed."""
    times, units = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        times.append(probe["net_s"])
        units += probe["units"]
    return speed.scaled(statistics.median(times), units)


def setup_probe(workload: str, seed: int) -> None:
    """Print the net set-up time and the calibration units run inside it."""
    sampler = speed.Sampler()
    with sampler:
        t0 = time.perf_counter()
        import_package()
        import workloads

        workloads.build(workload, seed)
        elapsed = time.perf_counter() - t0
    print(json.dumps({"net_s": elapsed - sampler.units_s, "units": sampler.times}))


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ncgeo = import_package()
    import tracer as tracing
    import workloads

    if workload not in workloads.WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; one of {', '.join(workloads.WORKLOADS)} or all")
    setup = None if trace else setup_seconds(workload, seed)
    ops = workloads.build(workload, seed)
    pts = points(seed)
    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer(ncgeo) if trace else None
    sampler = speed.Sampler()
    start = time.perf_counter()
    first = None
    while True:
        t0 = time.perf_counter()
        outputs = run_pass(ops, plain, pts, sampler=sampler)
        if first is None:
            first = outputs
        if tracer is not None:
            run_pass(ops, traced, pts, tracer)
        # stop before a round that would end past the deadline, so a run
        # lasts about --seconds whatever the length of a pass
        now = time.perf_counter()
        if now + (now - t0) > start + seconds:
            break
    _, missed = run_controls(ops, first, pts)

    if tracer is None:
        metrics = {
            "setup_s": setup,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "pass_ref_s": speed.scaled(statistics.mean(plain.pass_s), sampler.times),
        }
        units = dict(END_TO_END)
    else:
        metrics = layer_metrics(tracer, tracing.METRICS, len(traced.pass_s))
        metrics["trace.overhead_s"] = statistics.median(traced.pass_s) - statistics.median(plain.pass_s)
        units = dict(tracing.METRICS)
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"trace-{workload}-{seed}.tsv")
    return {
        "correct": not (plain.wrong or traced.wrong or missed),
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def layer_metrics(tracer, names, passes: int) -> dict:
    """Per-pass counts and self times of the traced passes."""
    out = {}
    for name, unit in names:
        layer, _, what = name.partition(".")
        if layer == "trace":
            continue
        if what == "self_s":
            out[name] = tracer.self_s[layer] / passes
        elif name in tracer.path_s:
            out[name] = tracer.path_s[name] / passes
        elif name.startswith("solver.h1_ms_p"):
            h1 = sorted(tracer.h1_s) or [0.0]
            out[name] = h1[(len(h1) - 1) * int(name[-2:]) // 100] * 1e3
        elif name == "scalars.max_den_degree":
            out[name] = tracer.counts[name]
        else:
            out[name] = tracer.counts[name] / passes
    return out


# ---------------------------------------------------------------------------
# the smoke mode and the all-workloads mode


def smoke(seed: int) -> int:
    """Every workload at small sizes, untraced and traced, with every
    negative control.  Exit 0 only if all outputs pass and all controls
    are caught."""
    ncgeo = import_package()
    import tracer as tracing
    import workloads

    pts = points(seed)
    tally = Tally()
    missed, controls = [], 0
    tracer = tracing.Tracer(ncgeo)
    for name in workloads.WORKLOADS:
        ops = workloads.build(name, seed, small=True)
        outputs = run_pass(ops, tally, pts)
        tracer.reset()
        run_pass(ops, tally, pts, tracer)
        n, m = run_controls(ops, outputs, pts)
        controls += n
        missed += m
        print(f"{name}: {len(ops)} ops, {len(tracer.spans)} spans traced, {n} negative controls")
    ok = not (tally.wrong or missed or tally.failed)
    print(f"smoke: {tally.attempted} ops, {tally.failed} failed, {len(tally.wrong)} wrong, "
          f"{controls - len(missed)}/{controls} negative controls caught")
    print(json.dumps({"correct": ok, "attempted": tally.attempted, "failed": tally.failed, "metrics": {}}))
    return 0 if ok else 1


def run_all(seed: int, seconds: float, trace: int) -> int:
    import_package()
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            status = 1
            print(f"{name}: exited {proc.returncode}")
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        results[name] = res
        status |= not res["correct"] or res["failed"] > 0
        for metric, mv in res["metrics"].items():
            print(f"{name:8s} {metric:26s} {mv['value']:14.6g} {mv['unit']}")
    print(json.dumps(results))
    return int(status)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="small sizes, every workload and negative control")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.smoke:
        return smoke(args.seed)
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, mv in result["metrics"].items():
        print(f"{name:26s} {mv['value']:14.6g} {mv['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
