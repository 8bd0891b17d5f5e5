"""Repeat the benchmark over several seeds and summarize the run-to-run spread.

    python3 perfbench/collect.py [--runs 10] [--first-seed 100]
                                 [--workloads a,b] [--out FILE]

For each workload, runs ``run.py --trace 0`` once per seed and then one
``--trace 1`` run, with the run length from BENCHMARK.json. For every
end-to-end metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (Q3 - Q1) / median
next to the metric's bound. With ``--out`` the summary, the per-layer
metrics of the traced run, the provenance and every run's answer digest are
written as JSON, which is how the committed baseline was made.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = MANIFEST["command"][1:] + ["--workload", workload, "--seed", str(seed), "--seconds",
                                     str(MANIFEST["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run([sys.executable, *cmd], cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed: {proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    for line in lines:
        if line.startswith("# answers sha256 "):
            result["sha256"] = line.split()[-1]
        if line.startswith("# provenance "):
            result["provenance"] = json.loads(line[len("# provenance "):])
        if line.startswith("# raw "):
            fields = line[len("# raw "):].split(";")[0].split()
            result["raw"] = {k: float(v) for k, v in (f.split("=") for f in fields)}
    return result


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in MANIFEST["workloads"]))
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in MANIFEST["end_to_end"]}
    report = {"run_seconds": MANIFEST["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, args.first_seed + i, 0) for i in range(args.runs)]
        traced = run_once(workload, args.first_seed, 1)
        entry = {
            "end_to_end": {},
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
            "attempted": [r["attempted"] for r in runs],
            "failed": [r["failed"] for r in runs],
            "sha256": {str(args.first_seed + i): r["sha256"] for i, r in enumerate(runs)},
            "raw": {name: summarize([r["raw"][name] for r in runs]) for name in runs[0]["raw"]},
        }
        report["provenance"] = {k: v for k, v in runs[0]["provenance"].items() if k != "seed"}
        print(f"== {workload}: {args.runs} seeds from {args.first_seed}, "
              f"failed {sum(entry['failed'])} of {sum(entry['attempted'])}")
        for name, bound in bounds.items():
            s = summarize([r["metrics"][name]["value"] for r in runs])
            s["bound"] = bound
            entry["end_to_end"][name] = s
            flag = "" if name == "setup_s" or s["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {name:14s} median {s['median']:.5g}  q1 {s['q1']:.5g}  q3 {s['q3']:.5g}  "
                  f"spread {s['spread']:.3f}  bound {bound}{flag}")
        for name, s in entry["raw"].items():
            print(f"  raw {name:10s} median {s['median']:.5g}  spread {s['spread']:.3f}")
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
