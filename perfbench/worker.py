"""Runs one library workload in a fresh interpreter, as a library user would.

    python3 perfbench/worker.py setup INPUT OUTPUT SRC
    python3 perfbench/worker.py run INPUT OUTPUT SRC [--trace]

``setup`` imports liecohom and parses every algebra of INPUT (with its change
of basis, if any), then stops: it is one sample of the set-up time. ``run``
does the same set-up and then answers every query of INPUT in order, each
one starting when the previous one returned. Answers, per-query times,
reference-kernel samples and, with ``--trace``, the spans go to OUTPUT as
JSON once the loop has finished.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import speed
from algebras import fr
from workloads import form_terms


def _setup(lc, inputs: dict) -> dict:
    algebras = {}
    for key, item in inputs["algebras"].items():
        g = lc.parse_algebra(item["doc"])
        if "change" in item:
            g = lc.change_basis(g, lc.RationalMatrix.from_rows(item["change"]))
        algebras[key] = g
    return algebras


def _call(lc, algebras: dict, q: dict):
    """The library call for one query, with its arguments built up front."""
    g = algebras[q["alg"]]
    kind = q["kind"]
    if kind == "omega":
        return lambda: lc.omega_set(lc.adapted_basis(g))
    w = lc.OneForm(q["w"])
    if kind == "betti":
        return lambda: lc.betti_numbers(g, w)
    if kind == "cohomology":
        return lambda: lc.cohomology(g, w)
    if kind == "coboundary":
        xi = lc.ExteriorForm(g.dim, q["p"], {tuple(i): Fraction(c) for i, c in q["xi"]})
        return lambda: lc.is_coboundary(g, w, xi)
    if kind == "scan":
        return lambda: lc.scan_line(g, w)
    if kind == "r0":
        return lambda: lc.r0_spectrum(lc.adapted_basis(g), w, q["p"])
    if kind == "novikov":
        lam = Fraction(q["lam"])
        return lambda: lc.novikov_report(g, w, lam, q["morse"])
    raise ValueError(f"unknown query kind {kind}")


def _answer(kind: str, result):
    """JSON form of a result: exact rationals as strings, forms as term lists."""
    if kind == "betti":
        return list(result)
    if kind == "cohomology":
        return {"betti": list(result.betti),
                "reps": [[form_terms(r.terms) for r in degree]
                         for degree in result.representatives]}
    if kind == "coboundary":
        return None if result is None else form_terms(result.terms)
    if kind == "scan":
        return {"critical": [fr(x) for x in result.critical_lambdas],
                "rows": [[fr(r.lam), list(r.betti)] for r in result.rows],
                "generic": [fr(result.generic.lam), list(result.generic.betti)]}
    if kind == "omega":
        return [[fr(x) for x in w.coeffs] for w in result.sorted_elements()]
    if kind == "r0":
        return [fr(x) for x in result]
    return {"betti": list(result.betti), "holds": list(result.holds),
            "lambda_critical": result.lambda_critical}


def main(argv: list[str]) -> int:
    mode, input_path, output_path, src = argv[:4]
    trace = "--trace" in argv[4:]
    inputs = json.loads(Path(input_path).read_text())
    cal = speed.Calibration()
    cal.take(5)
    t0 = time.perf_counter()
    import liecohom as lc
    if not Path(lc.__file__).resolve().is_relative_to(Path(src).resolve()):
        print(f"error: liecohom imported from {lc.__file__}, not from {src}", file=sys.stderr)
        return 2
    tracer = None
    if trace:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    algebras = _setup(lc, inputs)
    t1 = time.perf_counter()
    out = {"setup_s": t1 - t0, "setup_factor": cal.factor_at(t0)}
    if mode == "run":
        calls = [_call(lc, algebras, q) for q in inputs["queries"]]
        times, results, errors = [], [], []
        for i, call in enumerate(calls):
            cal.maybe_take()
            if tracer is not None:
                tracer.query = i
            start = time.perf_counter()
            try:
                result, error = call(), None
            except Exception as exc:  # a failed query is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            times.append((start, time.perf_counter() - start))
            results.append(result)
            errors.append(error)
        cal.take(3)
        out["latency_s"] = [dt for _, dt in times]
        out["factor"] = [cal.factor_at(start + dt / 2) for start, dt in times]
        answers = []
        for i, (q, res) in enumerate(zip(inputs["queries"], results)):
            try:
                answers.append(None if errors[i] else _answer(q["kind"], res))
            except (AttributeError, TypeError, ValueError) as exc:
                answers.append(None)
                errors[i] = f"unexpected result shape: {exc!r}"
        out["answers"] = answers
        out["errors"] = errors
        if tracer is not None:
            out["trace"] = tracer.dump()
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(output_path).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
