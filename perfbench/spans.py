"""Spans around calls into each solk module, and the per-layer metrics built from them.

The benchmark wraps the public functions of every module from the outside:
a name is replaced in each ``solk`` namespace that binds it, so calls made
inside a module (``kernel_basis`` calling ``smith_normal_form``) are seen
too.  Spans stay in memory with a parent index and an item id until the
run ends.  Self time is a span's duration minus the part of it that its
child spans cover; ``*_incl_s`` metrics are inclusive.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from time import perf_counter

# Per-element helpers called in inner loops (xgcd, gtilde_on_class,
# edge_trace_row, boundary_column) stay unwrapped: a span per call would
# cost more than the work it measures.
FUNCTIONS = {
    "model": (
        "parse_presentation", "validate", "abelianization", "substitution_power",
        "serialize_presentation",
    ),
    "germs": (
        "occurring_classes", "quotient_summary", "is_quotient_hausdorff", "junction_germs",
        "interior_preimages",
    ),
    "ktheory": (
        "ktheory_report", "with_class_order", "boundary_matrix", "trace_pullback_matrix",
        "k_theory_of_g0", "psi_star_k0", "psi_star_k1", "first_edge_matrix",
    ),
    "intlin": (
        "smith_normal_form", "hermite_normal_form_rows", "column_hnf", "kernel_basis",
        "cokernel", "solve_columns", "in_column_lattice", "restrict_endomorphism",
        "saturate_columns", "same_column_lattice", "rank", "determinant", "invert_unimodular",
    ),
    "limits": (
        "make_limit", "classify", "element_add", "element_negate", "element_equal",
        "element_positive", "stationary_torsion_limit",
    ),
    "sft": ("validate_sft", "sft_dimension_group", "edge_shift"),
    "cli": ("main",),
}
METHODS = {
    "intlin": ("IntMatrix", ("__matmul__", "power")),
    "limits": ("StationaryLimitGroup", ("__init__", "from_ambient", "element", "zero", "classify")),
}
LAYER_OF = {name: layer for layer, names in FUNCTIONS.items() for name in names}
LAYER_OF.update(
    {f"{cls}.{m}": layer for layer, (cls, methods) in METHODS.items() for m in methods}
)
# Observer time is recorded as a child span of no layer, so it is excluded
# from its parent's self time.
OBSERVE_SPAN = "trace.observe"

ELEMENT_OPS = frozenset({
    "StationaryLimitGroup.from_ambient", "StationaryLimitGroup.element",
    "StationaryLimitGroup.zero", "element_add", "element_negate", "element_equal",
    "element_positive",
})
SELF_METRIC = {
    "parse_presentation": "model.parse_s",
    "quotient_summary": "germs.summary_s",
    "smith_normal_form": "intlin.snf_s",
    "hermite_normal_form_rows": "intlin.hnf_s",
    "solve_columns": "intlin.solve_s",
    "invert_unimodular": "intlin.invert_unimodular_s",
    "determinant": "intlin.det_s",
    "IntMatrix.__matmul__": "intlin.matmul_s",
    "IntMatrix.power": "intlin.power_s",
    "StationaryLimitGroup.classify": "limits.classify_s",
    "stationary_torsion_limit": "limits.torsion_s",
    "validate_sft": "sft.validate_s",
    "edge_shift": "sft.edge_shift_s",
}
INCLUSIVE_METRIC = {
    "validate": "model.validate_incl_s",
    "occurring_classes": "germs.closure_incl_s",
    "psi_star_k1": "ktheory.psi1_incl_s",
    "IntMatrix.power": "intlin.power_incl_s",
    "StationaryLimitGroup.__init__": "limits.construct_incl_s",
    "sft_dimension_group": "sft.dimension_group_incl_s",
}
CALLS_METRIC = {
    "validate": "model.validate_calls",
    "occurring_classes": "germs.closure_calls",
    "smith_normal_form": "intlin.snf_calls",
    "hermite_normal_form_rows": "intlin.hnf_calls",
    "solve_columns": "intlin.solve_calls",
    "IntMatrix.__matmul__": "intlin.matmul_calls",
    "StationaryLimitGroup.__init__": "limits.construct_calls",
}
# Layer self time; for ktheory and cli the table's own names are used.
LAYER_SELF_METRIC = {
    "model": "model.self_s",
    "germs": "germs.self_s",
    "ktheory": "ktheory.report_s",
    "intlin": "intlin.self_s",
    "limits": "limits.self_s",
    "sft": "sft.self_s",
    "cli": "cli.self_s",
}
# Observed values: the largest per item, then summed or maximised over items.
SUMMED_OBSERVATIONS = ("germs.classes", "germs.germs_total", "sft.recoded_states")
MAX_OBSERVATIONS = ("intlin.max_bits", "intlin.max_cells", "limits.max_ambient_rank")

RATIOS = {
    "model.validate_useful_ratio": "model.validate_calls",
    "germs.closure_useful_ratio": "germs.closure_calls",
}
# Every metric ``layer_metrics`` returns; run.py adds trace.overhead_frac.
METRICS = tuple(dict.fromkeys([
    *LAYER_SELF_METRIC.values(), *SELF_METRIC.values(), *INCLUSIVE_METRIC.values(),
    *CALLS_METRIC.values(), "ktheory.psi1_snf_calls", "limits.element_incl_s",
    "limits.element_ops", "limits.element_snf_calls", *SUMMED_OBSERVATIONS,
    *MAX_OBSERVATIONS, *RATIOS,
]))


def _bits(m) -> int:
    return max((abs(x).bit_length() for i in range(m.rows) for x in m.row(i)), default=0)


def _observe_snf(tracer, args, result):
    a = args[0]
    tracer.note("intlin.max_cells", a.rows * a.cols)
    tracer.note("intlin.max_bits", max(_bits(a), _bits(result.U), _bits(result.D), _bits(result.V)))


def _observe_hnf(tracer, args, result):
    a = args[0]
    tracer.note("intlin.max_cells", a.rows * a.cols)
    tracer.note("intlin.max_bits", max(_bits(a), _bits(result)))


def _observe_closure(tracer, args, result):
    graph = args[0].graph
    tracer.note("germs.classes", len(result.classes))
    tracer.note(
        "germs.germs_total",
        sum(
            sum(e.target == v for e in graph.edges) * sum(e.source == v for e in graph.edges)
            for v in graph.vertices
        ),
    )


def _observe_limit(tracer, args, result):
    tracer.note("limits.max_ambient_rank", args[0].ambient_rank)


def _observe_edge_shift(tracer, args, result):
    tracer.note("sft.recoded_states", len(result.states))


OBSERVERS = {
    "smith_normal_form": _observe_snf,
    "hermite_normal_form_rows": _observe_hnf,
    "occurring_classes": _observe_closure,
    "StationaryLimitGroup.__init__": _observe_limit,
    "edge_shift": _observe_edge_shift,
}


class Tracer:
    """In-memory span recorder; ``item`` tags the spans of the current item.

    A span is ``[name, parent index or -1, item, start, end]``.
    """

    def __init__(self):
        self.item: str | None = None
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []
        self.observed: dict[str, dict[str, int]] = defaultdict(dict)
        self._stack: list[int] = []

    def note(self, metric: str, value: int) -> None:
        per_item = self.observed[metric]
        per_item[self.item] = max(value, per_item.get(self.item, value))

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack
            span = [name, stack[-1] if stack else -1, self.item, perf_counter(), 0.0]
            stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = perf_counter()
                stack.pop()
            if observe is not None:
                start = perf_counter()
                observe(self, args, result)
                self.spans.append(
                    [OBSERVE_SPAN, stack[-1] if stack else -1, self.item, start, perf_counter()]
                )
            return result

        return traced

    def install(self, solk):
        """Wrap every listed function and method; returns a function that undoes it."""
        modules = [m for n, m in sys.modules.items() if n == "solk" or n.startswith("solk.")]
        undo = []
        for layer, names in FUNCTIONS.items():
            home = getattr(solk, layer)
            for name in names:
                original = getattr(home, name)
                traced = self.wrap(name, original)
                for module in modules:
                    if module.__dict__.get(name) is original:
                        setattr(module, name, traced)
                        undo.append((module, name, original))
        for layer, (cls_name, methods) in METHODS.items():
            cls = getattr(getattr(solk, layer), cls_name)
            for method in methods:
                original = cls.__dict__[method]
                setattr(cls, method, self.wrap(f"{cls_name}.{method}", original))
                undo.append((cls, method, original))

        def uninstall():
            for owner, name, original in reversed(undo):
                setattr(owner, name, original)

        return uninstall

    def dump(self, path) -> None:
        """Write the spans as JSON lines."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, item, start, end) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "parent": parent, "item": item, "name": name,
                                     "start": start, "end": end}) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, parent, item, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, parent, item, start, end) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(i, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(end - start - covered)
    return out


def layer_metrics(spans, observed, items: int) -> dict[str, float]:
    """Per-layer metrics of one pass over ``items`` items, without the overhead."""
    metrics = dict.fromkeys(METRICS, 0)
    selfs = self_times(spans)
    # Parents are recorded before their children, so one forward sweep
    # tells whether a span runs under psi_star_k1 or an element operation.
    under_psi1 = [False] * len(spans)
    under_element = [False] * len(spans)
    for i, (name, parent, item, start, end) in enumerate(spans):
        if parent >= 0:
            parent_name = spans[parent][0]
            under_psi1[i] = under_psi1[parent] or parent_name == "psi_star_k1"
            under_element[i] = under_element[parent] or parent_name in ELEMENT_OPS
        layer = LAYER_OF.get(name)
        if layer is None:
            continue
        metrics[LAYER_SELF_METRIC[layer]] += selfs[i]
        if name in SELF_METRIC:
            metrics[SELF_METRIC[name]] += selfs[i]
        if name in INCLUSIVE_METRIC:
            metrics[INCLUSIVE_METRIC[name]] += end - start
        if name in CALLS_METRIC:
            metrics[CALLS_METRIC[name]] += 1
        if name == "smith_normal_form":
            metrics["ktheory.psi1_snf_calls"] += under_psi1[i]
            metrics["limits.element_snf_calls"] += under_element[i]
        if name in ELEMENT_OPS and not under_element[i]:
            metrics["limits.element_incl_s"] += end - start
            metrics["limits.element_ops"] += 1
    for metric in SUMMED_OBSERVATIONS:
        metrics[metric] = sum(observed.get(metric, {}).values())
    for metric in MAX_OBSERVATIONS:
        metrics[metric] = max(observed.get(metric, {}).values(), default=0)
    for ratio, calls in RATIOS.items():
        metrics[ratio] = items / metrics[calls] if metrics[calls] else 0.0
    return metrics
