#!/usr/bin/env python3
"""Self-tests of the benchmark at its smallest size (one pass per run).

    python3 e2ebench/selftest.py

Runs every workload once untraced and once traced (about two minutes on
a 2-core machine) and checks that:

* the last output line has exactly the result keys, every metric
  BENCHMARK.json names is emitted with its unit, and every name matches
  ``[A-Za-z0-9_.-]+``;
* every run is correct, with no failed operation;
* warm-replay writes no cache bytes and serves every cached unit from
  the cache (hit ratio 1.0);
* verify-cold starts from an empty cache: nothing is rechecked, decoded
  or served from the cache;
* in a directory holding only BENCHMARK.json and the benchmark, run.py
  exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems: list[str] = []
    for metric in [*wanted[0], *wanted[1], *(w["name"] for w in spec["workloads"])]:
        if not NAME.fullmatch(metric):
            problems.append(f"name {metric!r} has characters outside [A-Za-z0-9_.-]")

    traced: dict[str, dict] = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            done = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if done.returncode != 0:
                problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
                continue
            result = json.loads(done.stdout.strip().splitlines()[-1])
            print(f"{label}: correct={result['correct']} attempted={result['attempted']}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{label}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{label}: {result['failed']} failed operations")
            emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
            if emitted != wanted[trace]:
                problems.append(f"{label}: metrics/units differ from BENCHMARK.json")
            if trace:
                traced[workload] = {k: v["value"] for k, v in result["metrics"].items()}

    warm = traced.get("warm-replay", {})
    if warm.get("exec.cache.bytes_written") != 0 or warm.get("exec.cache.put_s") != 0:
        problems.append("warm-replay wrote to the cache")
    if warm.get("exec.cache.hit_ratio") != 1.0:
        problems.append(f"warm-replay hit ratio {warm.get('exec.cache.hit_ratio')}, expected 1.0")
    cold = traced.get("verify-cold", {})
    for metric in ("exec.cache.hit_ratio", "refinement.recheck.s", "refinement.codec.decode_s"):
        if cold.get(metric) != 0:
            problems.append(f"verify-cold did not start from an empty cache: {metric}={cold.get(metric)}")

    bare = ROOT / ".e2ebench-work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "e2ebench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run("report-cold", 0, cwd=bare)
        if done.returncode == 0 or done.stdout.strip():
            problems.append("without the sources, run.py did not fail cleanly")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            bare.parent.rmdir()
        except OSError:
            pass

    for problem in problems:
        print(f"FAIL: {problem}")
    print("selftest:", "FAILED" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
