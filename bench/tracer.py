"""Layer wrappers installed from outside the package.

The package imports functions by name (``from .closedform import graph_det``),
so a wrapper replaces the function object in every qbiblock module that holds
it, not only in the defining module.  Methods are wrapped on their class.

Each wrapped call adds to its function's call count, self time (its time
minus the time of wrapped calls inside it) and total time.  Calls of
spanned functions also record a span: id, operation id, parent span id, name,
start, end.  The exactring methods and _fastpoly.cleared are counted but
record no span, because they run hundreds of thousands of times per command.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager

# (module, attribute path) of every traced function
LAYERS = (
    ("oracle", "verify_graph"),
    ("oracle", "oracle_det"),
    ("oracle", "oracle_cofactor"),
    ("oracle", "default_corpus"),
    ("matrix", "det_bareiss"),
    ("_moddet", "det_int_poly_matrix"),
    ("qdist", "q_distance_matrix"),
    ("qdist", "cofactor_matrix"),
    ("_fastpoly", "matmul"),
    ("_fastpoly", "cleared"),
    ("_fastpoly", "ffgj_inverse"),
    ("closedform", "graph_det"),
    ("closedform", "graph_cofactor"),
    ("closedform", "balance_vector"),
    ("closedform", "balance_constant"),
    ("closedform", "diagonal_weight_vector"),
    ("closedform", "local_matrix"),
    ("closedform", "graph_inverse"),
    ("closedform", "clearing_poly"),
    ("closedform", "check_conditions"),
    ("exactring", "RationalFunction.__init__"),
    ("exactring", "RationalFunction.eval_at"),
    ("exactring", "Polynomial.eval_at"),
    ("graph", "build"),
    ("graph", "distances"),
    ("cli", "main"),
)
UNSPANNED = ("exactring.", "_fastpoly.cleared")
MAX_SPANS = 200_000


def metric_name(module: str, attr: str) -> str:
    """Metric prefix of a traced function; a metric name must start with a letter."""
    return f"{module.lstrip('_')}.{attr}"


@contextmanager
def patched(replacements):
    """Replace function objects everywhere qbiblock holds them; restore on exit.

    replacements maps (module, attribute path) to a factory that takes the
    original callable and returns its wrapper.
    """
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "qbiblock"]
    undo = []
    try:
        for (module, attr), factory in replacements.items():
            owner = importlib.import_module(f"qbiblock.{module}")
            *path, last = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, last)
            wrapper = factory(original)
            targets = [(owner, last)]
            if not path:
                targets += [
                    (mod, key)
                    for mod in modules
                    for key, value in vars(mod).items()
                    if value is original and mod is not owner
                ]
            for target, key in targets:
                setattr(target, key, wrapper)
                undo.append((target, key, original))
        yield
    finally:
        for target, key, original in reversed(undo):
            setattr(target, key, original)


class Tracer:
    """Calls, self time, total time and spans of the wrapped functions."""

    def __init__(self):
        self.stats = {metric_name(m, a): [0, 0.0, 0.0] for m, a in LAYERS}
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.moddet_calls: list[tuple] = []
        self.operation = 0
        self._child_time: list[float] = []
        self._open_spans: list[int] = []
        self._next_span = 0

    def _factory(self, name: str, spanned: bool, observe=None):
        stats = self.stats[name]
        child_time = self._child_time
        open_spans = self._open_spans

        def factory(original):
            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                if spanned:
                    span_id = self._next_span
                    self._next_span += 1
                    parent = open_spans[-1] if open_spans else None
                    open_spans.append(span_id)
                child_time.append(0.0)
                start = time.perf_counter()
                try:
                    result = original(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    duration = end - start
                    stats[0] += 1
                    stats[1] += duration - child_time.pop()
                    stats[2] += duration
                    if child_time:
                        child_time[-1] += duration
                    if spanned:
                        open_spans.pop()
                        if len(self.spans) < MAX_SPANS:
                            self.spans.append((span_id, self.operation, parent, name, start, end))
                        else:
                            self.dropped_spans += 1
                if observe is not None:
                    observe(args, result)
                return result

            return wrapper

        return factory

    def replacements(self):
        out = {}
        for module, attr in LAYERS:
            qualified = f"{module}.{attr}"
            spanned = not qualified.startswith(UNSPANNED)
            observe = self._keep_moddet_call if module == "_moddet" else None
            out[(module, attr)] = self._factory(metric_name(module, attr), spanned, observe)
        return out

    def _keep_moddet_call(self, args, result):
        # sized after the run, so the bound arithmetic is inside no timed span
        self.moddet_calls.append((args[0], result))


def moddet_margins(calls) -> dict[str, float]:
    """A-priori degree and coefficient bounds of each determinant call next to
    the values its result reached; the bounds follow _moddet's definitions."""
    rows = []
    for entries, result in calls:
        deg_bound = 0
        coeff_bound = 1
        for row in entries:
            degs = [len(e) - 1 for e in row if e]
            deg_bound += max(degs) if degs else 0
            coeff_bound *= sum(sum(abs(c) for c in e) for e in row)
        rows.append((
            deg_bound,
            len(result) - 1,
            coeff_bound.bit_length(),
            max((abs(c).bit_length() for c in result), default=0),
        ))
    if not rows:
        return {k: 0 for k in ("deg_bound", "deg_actual", "coeff_bound_bits",
                               "coeff_actual_bits", "points_useful_ratio")}
    return {
        "deg_bound": statistics.median(r[0] for r in rows),
        "deg_actual": statistics.median(r[1] for r in rows),
        "coeff_bound_bits": statistics.median(r[2] for r in rows),
        "coeff_actual_bits": statistics.median(r[3] for r in rows),
        # points that carried information over points evaluated, all calls pooled
        "points_useful_ratio": sum(r[1] + 1 for r in rows) / sum(r[0] + 1 for r in rows),
    }
