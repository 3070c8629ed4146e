"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIMEOUT_S = 300


def _bench(workload: str, trace: int, root: Path = ROOT, seed: int = 5):
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        capture_output=True, text=True, timeout=TIMEOUT_S, cwd=root)


def _result(workload: str, trace: int):
    out = _bench(workload, trace)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_printed_with_its_unit(workload):
    lines, result = _result(workload, trace=0)
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())
    printed = {line.split()[0]: line.split()[2] for line in lines[:-1]
               if line.startswith("  ") and len(line.split()) >= 3}
    for name, unit in declared.items():
        assert printed[name] == unit
    assert printed["failed_frac"] == "ratio"
    assert any(line.split()[:2] == ["failed_frac", "0"] for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_with_one_seed_repeat_their_counts(workload):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = []
    for _ in range(2):
        _, result = _result(workload, trace=1)
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        counts.append({k: v["value"] for k, v in result["metrics"].items()
                       if v["unit"] not in ("ms", "%")})
    assert counts[0] == counts[1]
    assert counts[0]["sampling.normal_draws"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = _bench(WORKLOADS[0], trace=0, root=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
