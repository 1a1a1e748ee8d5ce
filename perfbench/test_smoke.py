"""Smoke test of the benchmark: every workload, untraced and traced, on
tiny inputs (``--smoke``).  It checks that the run passes all its checks
and prints every metric of BENCHMARK.json with its unit.

    python3 perfbench/test_smoke.py          # or: python3 -m pytest perfbench/test_smoke.py

Takes about 15 seconds.
"""

from __future__ import annotations

import json
import subprocess
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_smoke(workload: str, trace: int) -> tuple[subprocess.CompletedProcess, dict]:
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", "1", "--seconds", "1",
        "--trace", str(trace), "--smoke",
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    return proc, json.loads(lines[-1]) if lines else {}


def check_workload(workload: str) -> None:
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc, result = run_smoke(workload, trace)
        assert proc.returncode == 0, proc.stderr
        assert result["correct"] is True and result["failed"] == 0, result
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[key]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got == want, (workload, trace, got)
        for name, unit in want.items():
            value = result["metrics"][name]["value"]
            assert isinstance(value, (int, float)), (name, value)
            assert f"{name} = " in proc.stdout and f" {unit}\n" in proc.stdout


def test_slice_n12():
    check_workload("slice-n12")


def test_analyze():
    check_workload("analyze")


if __name__ == "__main__":
    for w in SPEC["workloads"]:
        check_workload(w["name"])
        print(f"ok {w['name']}")
