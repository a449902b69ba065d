"""Per-layer tracing from outside the package.

``Tracer.install()`` replaces every public callable of each layer module
(module functions, public methods, operators and constructors of public
classes) with a wrapper, in the module that defines it and in every module
that imported it by name; ``uninstall()`` puts the originals back.  The
package itself is not edited.

A wrapper opens a span only where a call crosses from one layer into
another; calls inside a layer are counted but not spanned.  Spans (name,
start, end, parent) stay in memory and are written out by ``write``.
Calls into ``scalars`` are too many to keep one span each: their time and
count fold into the calling span.  A layer's self time is the time of its
spans minus the time of the spans they caused.
"""

from __future__ import annotations

import inspect
import sys
from dataclasses import replace
from time import perf_counter

LAYERS = ("scalars", "torus", "crossed", "cochains", "solver", "pairing", "cli")

# operators and constructors worth wrapping; __hash__, __bool__ and the
# string forms are left alone
_DUNDERS = {
    "__init__", "__eq__", "__neg__", "__pow__",
    "__add__", "__radd__", "__sub__", "__rsub__",
    "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
}

# the per-layer metrics a traced run reports, all per pass
METRICS = (
    ("scalars.calls", "count"),
    ("scalars.inv_calls", "count"),
    ("scalars.self_s", "s"),
    ("scalars.max_den_degree", "count"),
    ("torus.products", "count"),
    ("torus.term_pairs", "count"),
    ("torus.self_s", "s"),
    ("crossed.products", "count"),
    ("crossed.projection_checks", "count"),
    ("crossed.self_s", "s"),
    ("cochains.calls", "count"),
    ("cochains.self_s", "s"),
    ("solver.kernel_calls", "count"),
    ("solver.solve_calls", "count"),
    ("solver.h1_calls", "count"),
    ("solver.self_s", "s"),
    ("solver.kernel_s", "s"),
    ("solver.solved_s", "s"),
    ("solver.refuted_s", "s"),
    ("solver.h1_ms_p50", "ms"),
    ("solver.h1_ms_p90", "ms"),
    ("solver.witness_terms", "count"),
    ("solver.certificate_terms", "count"),
    ("solver.basis_terms", "count"),
    ("pairing.evaluations", "count"),
    ("pairing.self_s", "s"),
    ("cli.commands", "count"),
    ("cli.self_s", "s"),
    ("cli.cohomology_report_s", "s"),
    ("cli.quick_cmds_s", "s"),
    ("cli.output_bytes", "count"),
    ("trace.overhead_s", "s"),
)


def _size(obj) -> int:
    """Number of stored coefficients of a functional or a pair."""
    if obj is None:
        return 0
    if hasattr(obj, "first"):
        return len(obj.first.terms) + len(obj.second.terms)
    return len(obj.terms)


def _after_scalar(t, name, args, result, d):
    if name == "Scalar.inv":
        t.counts["scalars.inv_calls"] += 1
    d = getattr(result, "d", None)
    if d is not None and len(d) - 1 > t.counts["scalars.max_den_degree"]:
        t.counts["scalars.max_den_degree"] = len(d) - 1


def _after_torus(t, name, args, result, d):
    if name == "TorusElement.__mul__" and hasattr(args[1], "terms"):
        t.counts["torus.products"] += 1
        t.counts["torus.term_pairs"] += len(args[0].terms) * len(args[1].terms)


def _after_crossed(t, name, args, result, d):
    if name == "CrossedElement.__mul__" and hasattr(args[1], "odd"):
        t.counts["crossed.products"] += 1
    elif name == "is_projection":
        t.counts["crossed.projection_checks"] += 1


def _after_solver(t, name, args, result, d):
    # d, the call's duration, is known where the call entered the layer
    if name == "kernel_dimension":
        t.counts["solver.kernel_calls"] += 1
        t.counts["solver.basis_terms"] += sum(_size(b) for b in result.basis)
        t.path_s["solver.kernel_s"] += d or 0.0
    elif name == "coboundary_solve":
        t.counts["solver.solve_calls"] += 1
        t.counts["solver.witness_terms"] += _size(result.witness)
        t.counts["solver.certificate_terms"] += len(result.certificate or ())
        t.path_s["solver.solved_s" if result.status == "solved" else "solver.refuted_s"] += d or 0.0
    elif name == "h1_trivialize":
        t.counts["solver.h1_calls"] += 1
        t.counts["solver.witness_terms"] += _size(result.witness)
        if d is not None:
            t.h1_s.append(d)


def _after_pairing(t, name, args, result, d):
    if name == "evaluate":
        t.counts["pairing.evaluations"] += 1


def _after_cli(t, name, args, result, d):
    if name == "main":
        t.counts["cli.commands"] += 1
        report = args and args[0] and args[0][0] == "cohomology-report"
        t.path_s["cli.cohomology_report_s" if report else "cli.quick_cmds_s"] += d or 0.0
        # the benchmark runs each command with stdout captured in a fresh
        # StringIO, so what it holds now is this command's report
        getvalue = getattr(sys.stdout, "getvalue", None)
        if getvalue is not None:
            t.counts["cli.output_bytes"] += len(getvalue().encode())


_AFTER = {
    "scalars": _after_scalar,
    "torus": _after_torus,
    "crossed": _after_crossed,
    "solver": _after_solver,
    "pairing": _after_pairing,
    "cli": _after_cli,
}


class Tracer:
    def __init__(self, package):
        self.package = package
        self._patches: list[tuple[object, str, object]] = []
        self.counts: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        # inclusive time per solver path and per CLI command kind, and the
        # duration of every h1_trivialize call
        self.path_s: dict[str, float] = {}
        self.h1_s: list[float] = []
        self.spans: list[tuple] = []
        # frame: [layer, time of child spans, span id, scalar time folded in]
        self._stack: list[list] = [[None, 0.0, 0, 0.0]]
        self.reset()

    def reset(self) -> None:
        """Clear counters, self times and spans in place, so installed
        wrappers keep recording into the same containers."""
        self.counts.update({name: 0 for name, unit in METRICS if unit == "count"})
        self.self_s.update({layer: 0.0 for layer in LAYERS})
        self.path_s.update({name: 0.0 for name in (
            "solver.kernel_s", "solver.solved_s", "solver.refuted_s",
            "cli.cohomology_report_s", "cli.quick_cmds_s",
        )})
        self.h1_s.clear()
        self.spans.clear()
        self._next_id = 1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        tracer = self
        stack = self._stack
        after = _AFTER.get(layer)
        counts = self.counts
        calls_key = layer + ".calls"
        folded = layer == "scalars"

        def wrapper(*args, **kwargs):
            if calls_key in counts:
                counts[calls_key] += 1
            top = stack[-1]
            d = None
            if top[0] == layer:
                result = fn(*args, **kwargs)
            else:
                frame = [layer, 0.0, tracer._next_id, 0.0]
                tracer._next_id += 1
                stack.append(frame)
                t0 = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    t1 = perf_counter()
                    stack.pop()
                    d = t1 - t0
                    tracer.self_s[layer] += d - frame[1]
                    top[1] += d
                    if folded:
                        top[3] += d
                    else:
                        tracer.spans.append((frame[2], top[2], name, t0, t1, frame[3]))
            if after is not None:
                after(tracer, name, args, result, d)
            return result

        return wrapper

    def _set(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every public callable of the seven layer modules."""
        modules = {layer: sys.modules[f"{self.package.__name__}.{layer}"] for layer in LAYERS}
        originals: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    w = self._wrap(layer, attr, obj)
                    originals[id(obj)] = w
                    self._set(mod, attr, w)
        # rebind names other modules imported from the layer modules
        for mod in [self.package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                w = originals.get(id(obj))
                if w is not None and getattr(mod, attr) is not w:
                    self._set(mod, attr, w)
        # the solver reaches the differentials through OPERATORS; the copies
        # are made before Operator.__init__ is wrapped, so they are not traced
        operators = modules["solver"].OPERATORS
        for key, op in list(operators.items()):
            self._patches.append((operators, key, op))
            operators[key] = replace(op, apply=originals[id(op.apply)])
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if (
                    inspect.isclass(obj)
                    and not attr.startswith("_")
                    and obj.__module__ == mod.__name__
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(layer, obj)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _DUNDERS:
                continue
            name = f"{cls.__name__}.{attr}"
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(self._wrap(layer, name, raw.__func__)))
            elif isinstance(raw, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(layer, name, raw.__func__)))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self._wrap(layer, name, raw))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, value = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    # -- results -------------------------------------------------------------

    def write(self, path) -> None:
        """Spans as tab-separated lines: id, parent, name, start, end and
        the scalar time folded into the span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id\tparent\tname\tstart\tend\tscalars_s\n")
            for sid, parent, name, t0, t1, sc in self.spans:
                fh.write(f"{sid}\t{parent}\t{name}\t{t0!r}\t{t1!r}\t{sc!r}\n")

