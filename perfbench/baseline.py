"""Measure the benchmark's baseline and its run-to-run spread.

    python3 perfbench/baseline.py

For each workload in ``BENCHMARK.json`` this runs the benchmark command
on seeds 1-10, one process at a time, in two sets, and reports for each
end-to-end metric the median and the spread of each set: the distance
between the first and third quartile (``statistics.quantiles(values,
n=4)``) as a share of the median.  It passes only if every spread,
``setup_s`` included, is within the metric's bound, the two sets'
medians differ by at most the bound in either direction (as a share of
the smaller), and every seed prints the same result digest in both
sets.  A final traced run per workload gives the per-layer self times,
the share of each layer, and whether each dominant-layer prediction
held.  The summary goes to ``perfbench/baseline.json``; the exit code
is 0 only if every check passed.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "baseline.json"
SETS = 2
SEEDS = list(range(1, 11))

# Dominant-layer predictions checked on the traced run: the named
# layers' share of all self time, and the threshold it must exceed
# (None: it must be the largest share of any layer).
PREDICTIONS = {
    "oracle-sweep": (("solver.naive_solve",), 0.90),
    "solve-scale": (("solver.solve",), 0.90),
    "cli-chain": (("engine.legal_moves", "engine.apply_move"), 0.90),
    "compile-play": (("strategy.choose.TrudyScript", "strategy.choose.FallonScript",
                      "strategy.choose.UniformRandom", "strategy.choose.GreedyDisabler"), None),
}


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    argv = [*spec["command"], "--workload", workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    report = next(json.loads(l[len("report "):]) for l in lines if l.startswith("report "))
    return json.loads(lines[-1]), report


def spread(values: list[float]) -> tuple[float, float]:
    """(median, distance between the quartiles as a share of the median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def drift(first: float, second: float) -> float:
    """How far apart two medians are, as a share of the smaller one."""
    return abs(second - first) / min(first, second)


def measure_set(spec, workload, seeds):
    runs = []
    for seed in seeds:
        result, report = run_once(spec, workload, seed, 0)
        runs.append({"seed": seed, "result": result, "report": report})
        print(f"  {workload} seed {seed}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']} digest={report['digest']}",
              file=sys.stderr)
    return runs


def summarize(spec, runs):
    """Median and spread of each end-to-end metric, and of the wall-clock
    figures and speed factors the metrics were scaled by."""
    out = {}
    for m in spec["end_to_end"]:
        values = [r["result"]["metrics"][m["name"]]["value"] for r in runs]
        med, spr = spread(values)
        out[m["name"]] = {"unit": m["unit"], "median": med, "spread": spr, "bound": m["bound"],
                          "spread_below_third_of_bound": spr < m["bound"] / 3,
                          "values": values}
        if m["name"] in runs[0]["report"]["wall_clock"]:
            wall = [r["report"]["wall_clock"][m["name"]] for r in runs]
            med, spr = spread(wall)
            out[m["name"]]["wall_clock"] = {"median": med, "spread": spr, "values": wall}
    factors = [r["report"]["speed_factor"] for r in runs]
    out["speed_factor"] = {"median": statistics.median(factors), "values": factors}
    return out


def traced(spec, workload):
    result, report = run_once(spec, workload, 1, 1)
    values = {k: v["value"] for k, v in result["metrics"].items()}
    selfs = {k[: -len(".self_s")]: v for k, v in values.items() if k.endswith(".self_s")}
    total = sum(selfs.values())
    shares = {k: v / total for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]) if v / total >= 0.001}
    layers, threshold = PREDICTIONS[workload]
    share = sum(selfs.get(name, 0.0) for name in layers) / total
    if threshold is None:
        others = [v / total for k, v in selfs.items() if k not in layers]
        held = share > max(others)
        claim = f"{' + '.join(layers)} is the largest share of self time"
    else:
        held = share > threshold
        claim = f"{' + '.join(layers)} takes more than {threshold:.0%} of self time"
    return {"correct": result["correct"], "metrics": values, "self_time_shares": shares,
            "bench_share_of_wall": values["bench.self_s"] / values["trace.wall_s"],
            "prediction": {"claim": claim, "measured_share": share, "held": held},
            "digest": report["digest"]}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(), "system": platform.system()},
        "run_seconds": spec["run_seconds"], "seeds": SEEDS, "sets": SETS, "workloads": {},
    }
    ok = True
    for name in (w["name"] for w in spec["workloads"]):
        sets = [measure_set(spec, name, SEEDS) for _ in range(SETS)]
        entry = {"why": next(w["why"] for w in spec["workloads"] if w["name"] == name),
                 "sets": [summarize(spec, runs) for runs in sets],
                 "failed_ratio": [sum(r["result"]["failed"] for r in runs)
                                  / sum(r["result"]["attempted"] for r in runs) for runs in sets],
                 "all_correct": all(r["result"]["correct"] for runs in sets for r in runs),
                 "digests": {str(r["seed"]): r["report"]["digest"] for r in sets[0]},
                 "inputs": sets[0][0]["report"]["inputs"],
                 "item_tail": sets[0][0]["report"].get("item_tail")}
        first, second = entry["sets"]
        entry["digests_repeat"] = all(
            a["report"]["digest"] == b["report"]["digest"] for a, b in zip(*sets))
        entry["median_drift"] = {m: drift(first[m]["median"], second[m]["median"]) for m in bounds}
        entry["medians_within_bound"] = all(entry["median_drift"][m] <= bounds[m] for m in bounds)
        entry["spreads_within_bound"] = all(s[m]["spread"] <= bounds[m] for s in entry["sets"] for m in bounds)
        entry["trace"] = traced(spec, name)
        ok = (ok and entry["digests_repeat"] and entry["medians_within_bound"]
              and entry["spreads_within_bound"] and entry["all_correct"] and entry["trace"]["correct"])
        doc["workloads"][name] = entry
        print(json.dumps({name: {"sets": entry["sets"], "prediction": entry["trace"]["prediction"]}}, indent=1),
              file=sys.stderr)
    doc["all_checks_pass"] = ok
    text = json.dumps(doc, indent=1, sort_keys=True) + "\n"
    OUT.write_text(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
