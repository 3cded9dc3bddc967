"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

For every workload it runs ``run.py --scale tiny`` once untraced and
twice traced with the same seed, and asserts that
  * the result line has exactly the keys correct/attempted/failed/metrics
    and the run is correct;
  * every end-to-end metric of BENCHMARK.json is emitted untraced, and
    every per-layer metric traced, each with the unit BENCHMARK.json
    gives it;
  * every traced count and ratio (calls, dp_states, letters, attempts,
    paths, ...) repeats exactly across the two traced runs.
Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7


def run(workload, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
           "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, result
    return result["metrics"]


def expect(metrics, declared, label):
    for spec in declared:
        got = metrics.get(spec["name"])
        assert got is not None, f"{label}: {spec['name']} missing"
        assert got["unit"] == spec["unit"], f"{label}: {spec['name']} unit {got['unit']}"
        assert isinstance(got["value"], (int, float)), f"{label}: {spec['name']} not a number"
    extra = set(metrics) - {spec["name"] for spec in declared}
    assert not extra, f"{label}: undeclared metrics {sorted(extra)}"


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in bench["workloads"]):
        expect(run(workload, 0), bench["end_to_end"], f"{workload} untraced")
        first, second = run(workload, 1), run(workload, 1)
        expect(first, bench["per_layer"], f"{workload} traced")
        for name, got in first.items():
            # timings, and the overhead derived from them, may differ
            if got["unit"] == "s" or name == "trace.overhead_frac":
                continue
            assert got["value"] == second[name]["value"], (
                f"{workload}: {name} {got['value']} != {second[name]['value']} on rerun")
        print(f"{workload}: ok", flush=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
