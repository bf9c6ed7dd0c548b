"""Spans and counters around latfact's public functions, from outside it.

The modules bind each other's functions with ``from .x import y``, so a
call is intercepted where its caller looks the name up: :class:`Tracer`
replaces every binding of a traced function in every loaded ``latfact``
module with one wrapper, and puts every original back on exit.  Two
methods of ``SNormSpace`` are wrapped on the class.

Each wrapped call records a span ``(name, start, end, parent, instance)``
in memory.  Self time is a span's duration minus the time its direct
child spans cover.  Counters are read from arguments and results at the
same boundaries.  Nothing in the library changes: wrappers pass arguments
and results through untouched, except that ``family_search`` receives its
ratio callable behind a counting shim that returns the same values.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("cli", "factorization", "simplex", "constants", "estimates",
          "search", "spaces", "snorm")

# (defining module, function) pairs; spans are named "module.function"
FUNCTIONS = (
    ("cli", "run"),
    ("factorization", "find_domination_measure"),
    ("factorization", "default_domination_grid"),
    ("factorization", "violation_oracle"),
    ("factorization", "verify_domination"),
    ("constants", "constant_chain_report"),
    ("constants", "operator_norm_estimate"),
    ("constants", "q_concavity_estimate"),
    ("constants", "pq_concavity_estimate"),
    ("constants", "q_summing_estimate"),
    ("constants", "family_sup_lhs"),
    ("constants", "weak_q_norm"),
    ("constants", "attainment_point"),
    ("estimates", "family_search"),
    ("search", "projected_ascent"),
    ("simplex", "solve_max_min"),
    ("spaces", "dual_norm_of_pth_power"),
)

# (module, class, method, span name)
METHODS = (
    ("snorm", "SNormSpace", "__post_init__", "snorm.SNormSpace"),
    ("snorm", "SNormSpace", "seminorm_rows", "snorm.seminorm_rows"),
)

# per-layer metrics: span name -> reported fields ("s" is inclusive time,
# "self_s" self time)
SPAN_METRICS = {
    "estimates.family_search": ("s", "calls"),
    "constants.pq_concavity_estimate": ("s", "calls"),
    "constants.family_sup_lhs": ("s", "calls"),
    "constants.weak_q_norm": ("s", "calls"),
    "constants.q_summing_estimate": ("s",),
    "constants.q_concavity_estimate": ("s",),
    "constants.operator_norm_estimate": ("s", "calls"),
    "factorization.violation_oracle": ("s", "calls"),
    "search.projected_ascent": ("s", "calls"),
    "simplex.solve_max_min": ("s", "calls"),
    "constants.attainment_point": ("s", "calls"),
    "snorm.SNormSpace": ("s", "calls"),
    "snorm.seminorm_rows": ("s", "calls"),
    "spaces.dual_norm_of_pth_power": ("calls",),
    "factorization.find_domination_measure": ("self_s",),
    "factorization.default_domination_grid": ("s",),
    "factorization.verify_domination": ("s",),
    "cli.run": ("self_s",),
}
COUNTERS = ("estimates.ratio_evals", "search.ascent_rows", "simplex.pivots",
            "factorization.oracle_rounds", "factorization.lp_rounds",
            "factorization.witnesses", "factorization.mixture_atoms")
MAXIMA = ("simplex.lp_cells.max",)


# the hooks read positional arguments, which is how the library passes them

def _count_ratio_evals(tracer, args, kwargs):
    ratio = args[0]

    def counted(F):
        tracer.counts["estimates.ratio_evals"] += 1
        return ratio(F)

    return (counted, *args[1:]), kwargs


def _count_ascent_rows(tracer, args, kwargs, result):
    tracer.counts["search.ascent_rows"] += args[3].shape[0]


def _count_lp(tracer, args, kwargs, result):
    A = args[0]
    tracer.counts["simplex.pivots"] += int(result.iterations)
    cells = int(A.shape[0] * A.shape[1])
    tracer.maxima["simplex.lp_cells.max"] = max(
        tracer.maxima.get("simplex.lp_cells.max", 0), cells)


def _count_certificate(tracer, args, kwargs, cert):
    tracer.counts["factorization.oracle_rounds"] += int(cert.iterations)
    tracer.counts["factorization.lp_rounds"] += len(cert.lp_values)
    tracer.counts["factorization.witnesses"] += len(cert.witnesses)
    tracer.counts["factorization.mixture_atoms"] += len(cert.xi.atoms)


BEFORE = {"estimates.family_search": _count_ratio_evals}
AFTER = {"search.projected_ascent": _count_ascent_rows,
         "simplex.solve_max_min": _count_lp,
         "factorization.find_domination_measure": _count_certificate}


class Tracer:
    """Context manager that wraps the traced functions while it is open."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.maxima: dict[str, int] = {}
        self.instance: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans, self.counts, self.maxima = [], Counter(), {}

    def _wrap(self, name: str, fn):
        before, after = BEFORE.get(name), AFTER.get(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(self, args, kwargs)
            parent = stack[-1] if stack else -1
            span = [name, perf_counter(), 0.0, parent, self.instance]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def __enter__(self):
        modules = [m for key, m in sorted(sys.modules.items())
                   if key == "latfact" or key.startswith("latfact.")]
        try:
            for module_name, attr in FUNCTIONS:
                original = getattr(importlib.import_module(f"latfact.{module_name}"),
                                   attr)
                wrapper = self._wrap(f"{module_name}.{attr}", original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)
            for module_name, cls_name, attr, name in METHODS:
                cls = getattr(importlib.import_module(f"latfact.{module_name}"),
                              cls_name)
                self._patch(cls, attr, self._wrap(name, cls.__dict__[attr]))
        except BaseException:
            self._restore()
            raise
        return self

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __exit__(self, *exc):
        self._restore()
        return False

    def span_records(self) -> list[dict]:
        return [{"name": n, "start": a, "end": b, "parent": p, "instance": i}
                for n, a, b, p, i in self.spans]

    def summary(self) -> dict:
        """Per span name: calls, inclusive time and self time, in seconds.

        Inclusive time counts only the outermost span of a name, so a
        function that re-enters itself is not counted twice.
        """
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "s": 0.0,
                                                    "self_s": 0.0})
        for index, (name, start, end, parent, _) in enumerate(spans):
            row = out[name]
            row["calls"] += 1
            row["self_s"] += (end - start) - child_time[index]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][3]
            if parent < 0:
                row["s"] += end - start
        return dict(out)

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of everything recorded since the last reset."""
        summary = self.summary()
        out: dict[str, float] = {}
        for name, fields in SPAN_METRICS.items():
            row = summary.get(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in fields:
                out[f"{name}.{field}"] = row[field]
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        for name in MAXIMA:
            out[name] = self.maxima.get(name, 0)
        return out


def layer_self_times(summary: dict) -> dict[str, float]:
    """Self time summed over the spans of each layer."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, row in summary.items():
        totals[name.split(".")[0]] += row["self_s"]
    return totals
