"""Fast self-test of the harness: every workload at toy size, in both modes.

Run from the repository root, in well under a minute:

    python3 bench/selftest.py          # or: python3 -m pytest -q bench/selftest.py

It checks the result line's shape, that every metric BENCHMARK.json declares
appears with its unit, that the toy studies pass every correctness check,
and that the benchmark refuses to run without the program's source.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
DOC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1", "--seconds", "1",
           "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def test_every_metric_reported_with_its_unit():
    for workload in (w["name"] for w in DOC["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = run_bench(ROOT, workload, trace)
            assert proc.returncode == 0, f"{workload} trace={trace}:\n{proc.stderr}"
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
            want = {m["name"]: m["unit"] for m in DOC[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want, f"{workload} trace={trace}: metrics differ from BENCHMARK.json"
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and m["value"] == m["value"], name


def test_refuses_to_run_without_the_program():
    bare = ROOT / ".bench_out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(bare, DOC["workloads"][0]["name"], 0)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


if __name__ == "__main__":
    test_every_metric_reported_with_its_unit()
    test_refuses_to_run_without_the_program()
    print("harness self-test passed")
