"""Spans around the calls one liecohom module makes into another.

``install`` replaces module-level names in the package's modules with
wrappers; the package's source stays untouched. Each wrapped call records a
span ``[name, start, end, parent span, query id]`` and a call count; a few
wrappers also record work counts computed from the call's inputs or result
(matrix cells, nonzeros, integer bit lengths, representatives kept). That
bookkeeping runs inside its own ``trace.meta`` span, so it is not charged to
the layer being measured. Spans stay in memory; the traced process writes
them out when it ends and ``layer_metrics`` turns them into self times.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

# (module, attribute, span name): entry points the benchmark calls through
# the package namespace, then the names each module imports from another.
SPANS = (
    ("liecohom", "parse_algebra", "serialization.parse"),
    ("liecohom", "change_basis", "algebra.change_basis"),
    ("liecohom", "betti_numbers", "cohomology.betti"),
    ("liecohom", "cohomology", "cohomology.cohomology"),
    ("liecohom", "is_coboundary", "cohomology.coboundary"),
    ("liecohom", "scan_line", "reports.scan"),
    ("liecohom", "novikov_report", "reports.novikov"),
    ("liecohom", "adapted_basis", "weights.adapted_basis"),
    ("liecohom", "omega_set", "weights.omega_set"),
    ("liecohom", "r0_spectrum", "weights.r0_spectrum"),
    ("liecohom.cli", "parse_algebra", "serialization.parse"),
    ("liecohom.cli", "cohomology", "cohomology.cohomology"),
    ("liecohom.cli", "adapted_basis", "weights.adapted_basis"),
    ("liecohom.cli", "omega_set", "weights.omega_set"),
    ("liecohom.cli", "scan_line", "reports.scan"),
    ("liecohom.cli", "novikov_report", "reports.novikov"),
    ("liecohom.cli", "load_example", "catalog.load_example"),
    ("liecohom.reports", "betti_numbers", "cohomology.betti"),
    ("liecohom.reports", "adapted_basis", "weights.adapted_basis"),
    ("liecohom.reports", "omega_set", "weights.omega_set"),
    ("liecohom.cohomology", "differential_matrices", "exterior.assemble"),
    ("liecohom.cohomology", "rank", "linalg.rank"),
    ("liecohom.cohomology", "kernel_basis", "linalg.kernel"),
    ("liecohom.cohomology", "in_image", "linalg.in_image"),
    ("liecohom.cohomology", "_representatives_from", "cohomology.reps"),
    ("liecohom.weights", "classify", "algebra.classify"),
    ("liecohom.weights", "derived_subalgebra", "algebra.derived_subalgebra"),
    ("liecohom.weights", "in_image", "linalg.in_image"),
    ("liecohom.weights", "kernel_basis", "linalg.kernel"),
    ("liecohom.weights", "rank", "linalg.rank"),
    ("liecohom.weights", "span_basis", "linalg.span_basis"),
    ("liecohom.weights", "extend_independent", "linalg.extend_independent"),
    ("liecohom.algebra", "in_image", "linalg.in_image"),
    ("liecohom.algebra", "invert", "linalg.invert"),
    ("liecohom.algebra", "kernel_basis", "linalg.kernel"),
    ("liecohom.algebra", "rank", "linalg.rank"),
    ("liecohom.algebra", "span_basis", "linalg.span_basis"),
)

# Calls too frequent for a span (is_closed runs once per monomial during
# assembly): counted only.
COUNTED = (
    ("liecohom.exterior", "is_closed", "exterior.is_closed"),
    ("liecohom.reports", "is_closed", "exterior.is_closed"),
)

# Extra counts keyed by the calling module.
CALLER_COUNTS = {("liecohom.weights", "in_image"): "weights.in_image"}


def _bits(q) -> int:
    return max(abs(q.numerator).bit_length(), q.denominator.bit_length())


def _rank_meta(tr, args, result):
    m = args[0]
    tr.counts["linalg.rank_cells"] += m.rows * m.cols
    bits = max((_bits(x) for i in range(m.rows) for x in m.row(i)), default=0)
    tr.maxima["linalg.input_max_bits"] = max(tr.maxima["linalg.input_max_bits"], bits)


def _assemble_meta(tr, args, result):
    for m in result.matrices:
        tr.counts["exterior.matrix_cells"] += m.rows * m.cols
        tr.counts["exterior.matrix_nonzeros"] += sum(
            1 for i in range(m.rows) for x in m.row(i) if x != 0)


def _reps_meta(tr, args, result):
    tr.counts["cohomology.reps_kept"] += len(result)
    if args[1] > 0:
        # one rank of the image columns precedes the per-candidate tests
        tr.counts["cohomology.reps_baseline_ranks"] += 1


def _omega_meta(tr, args, result):
    tr.counts["weights.omega_set_size"] += len(result)


def _scan_meta(tr, args, result):
    tr.counts["reports.scan_rows"] += len(result.rows) + 1


META = {
    "linalg.rank": _rank_meta,
    "exterior.assemble": _assemble_meta,
    "cohomology.reps": _reps_meta,
    "weights.omega_set": _omega_meta,
    "reports.scan": _scan_meta,
}


class Tracer:
    """In-memory span recorder; ``query`` tags spans with the current query."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.maxima: defaultdict = defaultdict(int)
        self.query = None

    def wrap(self, fn, name: str, extra_count: str | None = None):
        meta = META.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else None
            record = [name, 0.0, 0.0, parent, self.query]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            if extra_count:
                self.counts[extra_count] += 1
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                self.stack.pop()
            if meta is not None:
                book = ["trace.meta", clock(), 0.0, parent, self.query]
                self.spans.append(book)
                meta(self, args, result)
                book[2] = clock()
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, name: str):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def dump(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts), "maxima": dict(self.maxima)}


def install(tr: Tracer) -> None:
    """Wrap every listed name in place, including LieAlgebra.from_brackets."""
    for module_name, attr, span in SPANS:
        module = importlib.import_module(module_name)
        extra = CALLER_COUNTS.get((module_name, attr))
        setattr(module, attr, tr.wrap(getattr(module, attr), span, extra))
    for module_name, attr, name in COUNTED:
        module = importlib.import_module(module_name)
        setattr(module, attr, tr.count(getattr(module, attr), name))
    algebra = importlib.import_module("liecohom.algebra")
    build = algebra.LieAlgebra.__dict__["from_brackets"].__func__
    algebra.LieAlgebra.from_brackets = classmethod(tr.wrap(build, "algebra.build"))


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


# per-layer metric -> span names whose self time it sums
SELF_METRICS = {
    "exterior.assemble_s": ("exterior.assemble",),
    "linalg.rank_s": ("linalg.rank",),
    "linalg.kernel_s": ("linalg.kernel",),
    "linalg.in_image_s": ("linalg.in_image",),
    "linalg.other_s": ("linalg.span_basis", "linalg.extend_independent", "linalg.invert"),
    "cohomology.betti_self_s": ("cohomology.betti",),
    "cohomology.cohomology_self_s": ("cohomology.cohomology",),
    "cohomology.reps_self_s": ("cohomology.reps",),
    "cohomology.coboundary_s": ("cohomology.coboundary",),
    "weights.adapted_basis_s": ("weights.adapted_basis",),
    "weights.omega_set_s": ("weights.omega_set",),
    "weights.r0_spectrum_s": ("weights.r0_spectrum",),
    "algebra.classify_s": ("algebra.classify",),
    "algebra.other_s": ("algebra.change_basis", "algebra.derived_subalgebra"),
    "reports.scan_self_s": ("reports.scan",),
    "reports.novikov_s": ("reports.novikov",),
    "serialization.parse_s": ("serialization.parse",),
    "algebra.build_s": ("algebra.build",),
    "catalog.load_example_s": ("catalog.load_example",),
    "cli.main_self_s": ("cli.main",),
    "trace.meta_s": ("trace.meta",),
}

CALL_METRICS = {
    "exterior.assemble_calls": "exterior.assemble",
    "linalg.rank_calls": "linalg.rank",
    "linalg.kernel_calls": "linalg.kernel",
    "linalg.in_image_calls": "linalg.in_image",
    "weights.adapted_basis_calls": "weights.adapted_basis",
    "algebra.classify_calls": "algebra.classify",
    "serialization.parse_calls": "serialization.parse",
    "algebra.build_calls": "algebra.build",
}

COUNT_METRICS = {
    "exterior.is_closed_calls": "exterior.is_closed",
    "exterior.matrix_cells": "exterior.matrix_cells",
    "exterior.matrix_nonzeros": "exterior.matrix_nonzeros",
    "linalg.rank_cells": "linalg.rank_cells",
    "weights.in_image_calls": "weights.in_image",
    "weights.omega_set_size": "weights.omega_set_size",
    "reports.scan_rows": "reports.scan_rows",
}


def layer_metrics(traces: list[tuple[dict, dict]]) -> dict:
    """Per-layer metrics from traces of one run.

    ``traces`` pairs each process's dump with a map from query id to the
    speed factor of that query (times are rescaled like every other time).
    Spans of the set-up phase carry the query id ``None``. ``trace.self_sum_s``
    only covers spans inside queries, so it is comparable to the traced wall.
    """
    self_by = defaultdict(float)
    calls = Counter()
    counts = Counter()
    maxima = defaultdict(int)
    in_queries = 0.0
    rep_children = 0
    span_total = 0
    for dump, factors in traces:
        spans = dump["spans"]
        span_total += len(spans)
        selfs = self_times(spans)
        for (name, _, _, parent, query), own in zip(spans, selfs):
            scaled = own * factors[query]
            self_by[name] += scaled
            calls[name] += 1
            if query is not None:
                in_queries += scaled
            if name == "linalg.rank" and parent is not None and spans[parent][0] == "cohomology.reps":
                rep_children += 1
        counts.update(dump["counts"])
        for key, value in dump["maxima"].items():
            maxima[key] = max(maxima[key], value)
    out = {metric: sum(self_by[n] for n in names) for metric, names in SELF_METRICS.items()}
    out.update({metric: calls[name] for metric, name in CALL_METRICS.items()})
    out.update({metric: counts[name] for metric, name in COUNT_METRICS.items()})
    out["linalg.input_max_bits"] = maxima["linalg.input_max_bits"]
    tests = rep_children - counts["cohomology.reps_baseline_ranks"]
    out["cohomology.rep_rank_tests"] = tests
    out["cohomology.rep_accept_ratio"] = counts["cohomology.reps_kept"] / tests if tests else 0.0
    out["trace.spans"] = span_total
    out["trace.self_sum_s"] = in_queries
    return out
