"""liecohom benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py): betti_sweep, reps_dense, scan_solvable and
cli_batch. Each is generated from the seed; its size grows with --seconds.
Library workloads run in a fresh worker process (worker.py), cli_batch runs
one ``python3 -m liecohom`` process per query. Every query is a closed loop:
the next starts when the previous one returned. Every answer is checked
afterwards against closed forms computed by the benchmark itself
(algebras.py), outside the timed region.

With ``--trace 0`` the end-to-end metrics are printed: wall_s, query_p50_ms,
query_p90_ms, setup_s, peak_rss_mb, and failed_frac on its own line. With
``--trace 1`` the workload runs twice, untraced and traced (tracer.py), and
the per-layer metrics are printed, including the tracing overhead.

Times are rescaled to the nominal speed of a reference kernel sampled along
the run (speed.py), because the CPU speed of a shared host drifts by more
than the bounds; raw times are printed on the lines starting with ``#``.
All processes of a run share one CPU, the lowest one the run may use.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The package is imported from the
``src`` directory next to this one; without it the benchmark exits with 2.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import speed
from workloads import GENERATORS, WHY, WORKLOADS, check_cli, check_duality, check_library

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
FLOOR_PROBES = 10
DEADLINE_S = 170.0

END_TO_END = (
    ("wall_s", "s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

# name, unit, which direction is better
PER_LAYER = (
    ("exterior.assemble_s", "s", "lower"),
    ("exterior.assemble_calls", "count", "lower"),
    ("exterior.is_closed_calls", "count", "lower"),
    ("exterior.matrix_cells", "count", "lower"),
    ("exterior.matrix_nonzeros", "count", "lower"),
    ("linalg.rank_s", "s", "lower"),
    ("linalg.rank_calls", "count", "lower"),
    ("linalg.rank_cells", "count", "lower"),
    ("linalg.input_max_bits", "bits", "lower"),
    ("linalg.kernel_s", "s", "lower"),
    ("linalg.kernel_calls", "count", "lower"),
    ("linalg.in_image_s", "s", "lower"),
    ("linalg.in_image_calls", "count", "lower"),
    ("linalg.other_s", "s", "lower"),
    ("cohomology.betti_self_s", "s", "lower"),
    ("cohomology.cohomology_self_s", "s", "lower"),
    ("cohomology.reps_self_s", "s", "lower"),
    ("cohomology.rep_rank_tests", "count", "lower"),
    ("cohomology.rep_accept_ratio", "ratio", "higher"),
    ("cohomology.coboundary_s", "s", "lower"),
    ("weights.adapted_basis_s", "s", "lower"),
    ("weights.adapted_basis_calls", "count", "lower"),
    ("weights.in_image_calls", "count", "lower"),
    ("weights.omega_set_s", "s", "lower"),
    ("weights.omega_set_size", "count", "lower"),
    ("weights.r0_spectrum_s", "s", "lower"),
    ("algebra.classify_s", "s", "lower"),
    ("algebra.classify_calls", "count", "lower"),
    ("algebra.build_s", "s", "lower"),
    ("algebra.build_calls", "count", "lower"),
    ("algebra.other_s", "s", "lower"),
    ("reports.scan_self_s", "s", "lower"),
    ("reports.scan_rows", "count", "lower"),
    ("reports.novikov_s", "s", "lower"),
    ("serialization.parse_s", "s", "lower"),
    ("serialization.parse_calls", "count", "lower"),
    ("catalog.load_example_s", "s", "lower"),
    ("cli.interpreter_ms", "ms", "lower"),
    ("cli.import_ms", "ms", "lower"),
    ("cli.command_ms", "ms", "lower"),
    ("cli.main_self_s", "s", "lower"),
    ("cli.output_bytes", "bytes", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.self_sum_s", "s", "lower"),
    ("trace.meta_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)

# Single-run figures from ROADMAP item 1, printed next to the matching
# measurement: (workload, label, selector of matching queries, seconds).
ROADMAP = (
    ("betti_sweep", "betti_numbers h_9 (standard basis)",
     lambda wl, q: wl.instances[q["alg"]].alg.name == "heisenberg9", 0.23),
    ("reps_dense", "cohomology with representatives h_7 (ROADMAP: standard basis; here random)",
     lambda wl, q: q["kind"] == "cohomology" and wl.instances[q["alg"]].alg.name == "heisenberg7",
     0.48),
    ("cli_batch", "CLI scan on sol3",
     lambda wl, q: q["kind"] == "scan" and q["alg"].startswith("sol3"), 0.21),
)
ROADMAP_IMPORT_MS = 49.0


class BenchError(Exception):
    """The benchmark could not run the workload to the end."""


def run_child(cmd, cwd, env, deadline, capture=False):
    """Run a process to completion; returns (rc, stdout, max RSS in KB, start, seconds)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                            stderr=subprocess.DEVNULL if capture else None)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        out = proc.stdout.read() if capture else b""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        if proc.stdout:
            proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode < 0:
        raise BenchError(f"{cmd[1:3]} killed at the deadline")
    return proc.returncode, out, usage.ru_maxrss, start, time.perf_counter() - start


class Runner:
    """Runs one workload's processes inside a scratch directory of the checkout."""

    def __init__(self, wl, work: Path):
        self.wl = wl
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
        self.input = work / "input.json"
        self.input.write_text(json.dumps(wl.wire()))
        for name, text in wl.files.items():
            (work / name).write_text(text)

    def worker(self, mode: str, out: Path, trace=False) -> dict:
        cmd = [sys.executable, str(HERE / "worker.py"), mode, str(self.input), str(out), str(SRC)]
        rc, *_ = run_child(cmd + (["--trace"] if trace else []), self.work, self.env,
                           self.deadline)
        if rc != 0 or not out.is_file():
            raise BenchError(f"worker {mode} exited with {rc}")
        return json.loads(out.read_text())

    def setup_samples(self) -> list[float]:
        """Normalized set-up times of fresh interpreters, after one warm-up."""
        self.worker("setup", self.work / "warm.json")
        samples = []
        for i in range(SETUP_PROBES):
            d = self.worker("setup", self.work / f"setup{i}.json")
            samples.append(d["setup_s"] * d["setup_factor"])
        return samples

    def library_pass(self, trace=False) -> dict:
        d = self.worker("run", self.work / ("traced.json" if trace else "run.json"), trace)
        d["norm_s"] = [dt * f for dt, f in zip(d["latency_s"], d["factor"])]
        return d

    def cli_pass(self, trace=False) -> dict:
        cal = speed.Calibration()
        cal.take(3)
        rows = []
        for i, q in enumerate(self.wl.queries):
            cal.maybe_take()
            if trace:
                cmd = [sys.executable, str(HERE / "cli_child.py"), f"trace{i}.json", *q["argv"]]
            else:
                cmd = [sys.executable, "-m", "liecohom", *q["argv"]]
            rows.append(run_child(cmd, self.work, self.env, self.deadline, capture=True))
        cal.take(3)
        emitted = {}
        for q in self.wl.queries:
            path = self.work / q["out"] if "out" in q else None
            if path and path.is_file():
                emitted[q["out"]] = path.read_text()
                path.unlink()
        factor = [cal.factor_at(start + dt / 2) for _, _, _, start, dt in rows]
        return {
            "rc": [r[0] for r in rows],
            "stdout": [r[1].decode() for r in rows],
            "rss_kb": [r[2] for r in rows],
            "latency_s": [r[4] for r in rows],
            "factor": factor,
            "norm_s": [r[4] * f for r, f in zip(rows, factor)],
            "emitted": emitted,
            "answers": [[r[0], r[1].decode(), emitted.get(q.get("out"))]
                        for r, q in zip(rows, self.wl.queries)],
        }

    def floor_ms(self) -> float:
        """Median normalized wall time of a bare interpreter, in ms."""
        cal = speed.Calibration()
        samples = []
        for _ in range(FLOOR_PROBES):
            cal.take(2)
            _, _, _, start, dt = run_child([sys.executable, "-c", "pass"], self.work,
                                           self.env, self.deadline)
            cal.take(2)
            samples.append(dt * cal.factor_at(start) * 1e3)
        return statistics.median(samples)


def failures(wl, d: dict) -> dict[int, str]:
    """Query index -> reason, for every query that raised or failed a check."""
    bad = {}
    if wl.name == "cli_batch":
        for i, rc in enumerate(d["rc"]):
            reason = check_cli(wl, i, rc, d["stdout"][i], d["emitted"])
            if reason:
                bad[i] = reason
        return bad
    for i, answer in enumerate(d["answers"]):
        try:
            reason = d["errors"][i] or check_library(wl, i, answer)
        except (TypeError, KeyError, IndexError, ValueError) as exc:
            reason = f"unreadable answer: {exc!r}"
        if reason:
            bad[i] = reason
    for i in check_duality(wl, d["answers"]):
        bad.setdefault(i, "twisted Poincare duality fails for this pair")
    return bad


def digest(answers) -> str:
    canon = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def percentile90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10)[8] if len(values) > 1 else values[0]


def git_commit() -> str:
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def provenance(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "seed": seed,
        "src_lines": sum(len(p.read_text().splitlines()) for p in SRC.rglob("*.py")),
    }


def roadmap_lines(wl, d: dict) -> list[str]:
    lines = []
    for name, label, select, seconds in ROADMAP:
        if name != wl.name:
            continue
        picked = [i for i, q in enumerate(wl.queries) if select(wl, q)]
        if picked:
            raw = statistics.median(d["latency_s"][i] for i in picked)
            norm = statistics.median(d["norm_s"][i] for i in picked)
            lines.append(f"# roadmap {label}: median {norm:.4f} s normalized, {raw:.4f} s raw "
                         f"over {len(picked)} queries; ROADMAP single run {seconds} s")
    return lines


def end_to_end(wl, runner: Runner) -> tuple[dict, dict, list[str]]:
    setup = runner.setup_samples()
    d = runner.cli_pass() if wl.name == "cli_batch" else runner.library_pass()
    norm = d["norm_s"]
    rss_kb = max(d["rss_kb"]) if wl.name == "cli_batch" else d["peak_rss_kb"]
    p90 = percentile90(norm)
    metrics = {
        "wall_s": sum(norm),
        "query_p50_ms": statistics.median(norm) * 1e3,
        "query_p90_ms": p90 * 1e3,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss_kb / 1024,
    }
    raw = d["latency_s"]
    lines = [
        f"# samples {len(norm)} queries, {sum(1 for x in norm if x > p90)} above p90; "
        f"setup samples {len(setup)}",
        f"# raw wall_s={sum(raw):.4f} query_p50_ms={statistics.median(raw) * 1e3:.3f} "
        f"query_p90_ms={percentile90(raw) * 1e3:.3f}; median speed factor "
        f"{statistics.median(d['factor']):.4f}",
    ] + roadmap_lines(wl, d)
    return metrics, d, lines


def per_layer(wl, runner: Runner) -> tuple[dict, dict, list[str]]:
    import tracer as tracing
    if wl.name == "cli_batch":
        plain = runner.cli_pass()
        traced = runner.cli_pass(trace=True)
        dumps = []
        import_ms, command_ms = [], []
        for i, f in enumerate(traced["factor"]):
            dump = json.loads((runner.work / f"trace{i}.json").read_text())
            dumps.append((dump, {0: f, None: f}))
            import_ms.append(dump["import_s"] * f * 1e3)
            command_ms.extend((end - start) * f * 1e3
                              for name, start, end, _, _ in dump["spans"] if name == "cli.main")
        metrics = tracing.layer_metrics(dumps)
        metrics.update({
            "cli.interpreter_ms": runner.floor_ms(),
            "cli.import_ms": statistics.median(import_ms),
            "cli.command_ms": statistics.median(command_ms),
            "cli.output_bytes": sum(len(s.encode()) for s in plain["stdout"]),
        })
    else:
        plain = runner.library_pass()
        traced = runner.library_pass(trace=True)
        factors = dict(enumerate(traced["factor"]))
        factors[None] = traced["setup_factor"]
        metrics = tracing.layer_metrics([(traced["trace"], factors)])
        metrics.update({"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
                        "cli.command_ms": 0.0, "cli.output_bytes": 0})
    metrics["trace.wall_s"] = sum(traced["norm_s"])
    metrics["trace.overhead_frac"] = sum(traced["norm_s"]) / sum(plain["norm_s"]) - 1
    lines = [f"# untraced wall_s={sum(plain['norm_s']):.4f} traced wall_s="
             f"{metrics['trace.wall_s']:.4f} (normalized)"]
    if wl.name == "cli_batch":
        lines.append(f"# roadmap CLI import: {metrics['cli.import_ms']:.1f} ms normalized; "
                     f"ROADMAP single run {ROADMAP_IMPORT_MS} ms")
    if digest(plain["answers"]) != digest(traced["answers"]):
        raise BenchError("traced answers differ from untraced answers")
    return {name: metrics[name] for name, _, _ in PER_LAYER}, traced, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "liecohom" / "__init__.py").is_file():
        print(f"error: no liecohom sources under {SRC}", file=sys.stderr)
        return 2
    prov = provenance(args.seed)
    # one core for every process of the run, so that the reference kernel and
    # the work it calibrates share the core's contention
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = GENERATORS[args.workload](args.seed, args.seconds)
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        runner = Runner(wl, work)
        if args.trace:
            metrics, d, lines = per_layer(wl, runner)
            units = {name: unit for name, unit, _ in PER_LAYER}
        else:
            metrics, d, lines = end_to_end(wl, runner)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    bad = failures(wl, d)
    attempted = len(wl.queries)
    print(f"# perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}: {WHY[wl.name]}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for name, value in metrics.items():
        print(f"{name:30s} {value:.6g} {units[name]}")
    if not args.trace:
        print(f"{'failed_frac':30s} {len(bad) / attempted:.6g} ratio ({len(bad)} of {attempted})")
    for line in lines:
        print(line)
    for i, reason in sorted(bad.items())[:10]:
        print(f"# FAILED query {i}: {reason}")
    print(f"# answers sha256 {digest(d['answers'])}")
    print(json.dumps({
        "correct": not bad,
        "attempted": attempted,
        "failed": len(bad),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
