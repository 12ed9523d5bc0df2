"""Self-test of the benchmark itself.

    python3 bench/selftest.py

Runs every workload of BENCHMARK.json once at the tiny size, untraced and
traced, and checks that:

* each run exits 0 and its last line is a correct result with exactly the
  keys correct/attempted/failed/metrics;
* every metric BENCHMARK.json names is reported, with its unit, and no other;
* the layer self times of the traced cycle sum to no more than its wall time;
* on equality, where L >= m*n, the lstsq fallback is counted;
* in a directory holding only BENCHMARK.json and bench/, the runner exits
  nonzero without printing a result.

Exits 0 when every check passes and prints each failure otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")
# Layers whose self times partition the traced wall time; lapack spans are
# leaves, so their inclusive seconds are their self time.
SELF_TIMES = ("cli.self_s", "harness.self_s", "solvers.self_s", "certify.self_s",
              "measure.self_s", "linalg.self_s", "fileio.s", "lapack.lstsq.s",
              "lapack.eigh.s", "lapack.svd.s", "lapack.cho_factor.s", "lapack.cho_solve.s")


def run(argv, cwd=ROOT):
    return subprocess.run([sys.executable] + argv, capture_output=True, text=True,
                          timeout=170, cwd=cwd)


def check_result(spec, workload: str, trace: int) -> list:
    done = run([RUN, "--workload", workload, "--seed", "7", "--seconds", "0",
                "--trace", str(trace), "--size", "tiny"])
    where = f"{workload} trace={trace}"
    if done.returncode != 0:
        return [f"{where}: exit {done.returncode}: {done.stderr.strip()[-500:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"{where}: keys {sorted(result)}")
    if result.get("correct") is not True:
        problems.append(f"{where}: correct={result.get('correct')}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1
            and isinstance(result.get("failed"), int)
            and 0 <= result["failed"] <= result["attempted"]):
        problems.append(f"{where}: attempted={result.get('attempted')} "
                        f"failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = {name: m.get("unit") for name, m in metrics.items()}
    if got != expected:
        diff = sorted(set(got.items()) ^ set(expected.items()))
        problems.append(f"{where}: metrics or units differ from BENCHMARK.json: {diff}")
    if not all(isinstance(m.get("value"), (int, float)) for m in metrics.values()):
        problems.append(f"{where}: non-numeric metric value")
    if trace and not problems:
        self_sum = sum(metrics[name]["value"] for name in SELF_TIMES)
        wall = metrics["trace.wall_s"]["value"]
        if self_sum > wall:
            problems.append(f"{where}: layer self times {self_sum} > wall {wall}")
        if workload == "equality" and metrics["lapack.lstsq.calls"]["value"] <= 0:
            problems.append(f"{where}: lstsq fallback not counted")
    return problems


def check_bare_directory() -> list:
    os.makedirs(os.path.join(BENCH_DIR, "out"), exist_ok=True)
    bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(BENCH_DIR, "out"))
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        done = run([os.path.join("bench", "run.py"), "--workload", "equality",
                    "--seed", "1", "--seconds", "1", "--trace", "0"], cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or '"correct"' in done.stdout:
        return [f"bare directory: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            problems += check_result(spec, workload["name"], trace)
    problems += check_bare_directory()
    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
