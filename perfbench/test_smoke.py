"""Smoke test of the benchmark at tiny scale.

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs untraced and traced, in this process, on a shrunken
round of items and a single repeat; every metric named in
BENCHMARK.json must be printed with its unit, and no item may fail.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Rounds of at least 11 items, so the tail percentile is defined.  The
# cli-chain round stays as it is: 12 chains of about a second each.
TINY = {
    "oracle-sweep": {"ROUND": [6] * 10 + [7, 8]},
    "solve-scale": {"ROUND": ["L1"] * 6 + ["L1-16", "L3"] + ["LAVA"] * 4,
                    "L1_STRINGS": {"L1": 8, "L1-16": 9}, "L3_STRINGS": 18, "LAVA_STRINGS": 10},
    "compile-play": {"SEEDS_PER_MATCHUP": 1},
    "cli-chain": {},
}


@pytest.fixture
def tiny(monkeypatch):
    for name, attrs in TINY.items():
        for attr, value in attrs.items():
            monkeypatch.setattr(workloads.WORKLOADS[name], attr, value)


def bench(capsys, workload: str, trace: int) -> list[str]:
    code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    return capsys.readouterr().out.splitlines()


def report_of(lines: list[str]) -> dict:
    return json.loads(next(l for l in lines if l.startswith("report "))[len("report "):])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_prints_every_metric(tiny, capsys, workload, trace):
    lines = bench(capsys, workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    # Human-readable lines: "<workload> <metric> = <value> <unit> [...]".
    printed = dict(line[len(workload) + 1:].split(" = ", 1) for line in lines
                   if line.startswith(f"{workload} ") and " = " in line)
    for m in expected:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert printed[m["name"]].split()[1] == m["unit"]
    report = report_of(lines)
    if not trace:
        assert printed["failed_ratio"].startswith("0 ")
        # Times are scaled by the reference slices, which must have run.
        assert report["reference_slices"] >= 1 and report["speed_factor"] > 0
        assert set(report["wall_clock"]) == {"items_per_s", "item_p50_ms", "item_tail_ms", "setup_s"}
    assert report["failed_ratio"] == 0


def test_same_seed_same_digest(tiny, capsys):
    digests = [report_of(bench(capsys, "compile-play", 0))["digest"] for _ in range(2)]
    assert digests[0] == digests[1]


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    argv = [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
            "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
