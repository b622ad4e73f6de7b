#!/usr/bin/env python3
"""Toy-size self-check of the benchmark harness; takes about ten seconds.

    python3 perfbench/selfcheck.py

Runs every workload shape on 10x10 grids in both trace modes, each in its
own process as a real run would be, and confirms that:

- the last output line is the result object with exactly the contract's
  keys, and carries every metric BENCHMARK.json names for that mode, with
  its unit and a finite value;
- every match passed the correctness gate;
- in each traced match the per-layer self times add up to the traced
  dispatch time, so no wrapped call is left out of a layer;
- in a directory holding only BENCHMARK.json and the benchmark's files the
  command exits non-zero without printing a result.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

from spans import COMMIT_BUCKET, SELF_BUCKETS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BARE = ROOT / ".bench_work" / "selfcheck-bare"
TIMEOUT_S = 170


def run(cwd: Path, workload: str, trace: int):
    cmd = [sys.executable, str(cwd / HERE.name / "run.py"), "--workload", workload,
           "--seed", "9", "--seconds", "0.2", "--trace", str(trace), "--toy"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)


def check_result(spec: dict, proc, trace: int) -> list[str]:
    errors = []
    if proc.returncode != 0:
        return [f"exit code {proc.returncode}: {proc.stderr.strip()[-500:]}"]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"gate failed: {proc.stderr.strip()[-500:]}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted {result.get('attempted')!r}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in wanted}:
        errors.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in wanted})}")
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            continue
        if got.get("unit") != m["unit"]:
            errors.append(f"{m['name']}: unit {got.get('unit')!r} != {m['unit']!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append(f"{m['name']}: value {value!r}")
    return errors


def check_accounting(record_path: Path) -> list[str]:
    record = json.loads(record_path.read_text(encoding="utf-8"))
    buckets = set(SELF_BUCKETS.values()) | {COMMIT_BUCKET}
    errors = []
    if not record["traced"]:
        errors.append("no traced match recorded")
    for traced in record["traced"]:
        total = sum(traced[b] for b in buckets)
        if not math.isclose(total, traced["trace.diff_s"], rel_tol=1e-6, abs_tol=1e-9):
            errors.append(f"self times sum to {total}, traced dispatch {traced['trace.diff_s']}")
    return errors


def check_bare() -> list[str]:
    """The command must fail, without a result, where the program is absent."""
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", BARE / "BENCHMARK.json")
        shutil.copytree(HERE, BARE / HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE, next(iter(WORKLOADS)), 0)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode == 0 or (lines and lines[-1].startswith("{")):
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    failures = []
    if sorted(names) != sorted(WORKLOADS):
        failures.append(f"BENCHMARK.json workloads {names} != harness {sorted(WORKLOADS)}")
    for workload in names:
        for trace in (0, 1):
            proc = run(ROOT, workload, trace)
            errors = check_result(spec, proc, trace)
            if trace and not errors:
                record = ROOT / ".bench_work" / "results" / f"{workload}-s9-t1-toy.json"
                errors += check_accounting(record)
            status = "ok" if not errors else "FAIL"
            print(f"{workload} trace={trace}: {status}")
            failures += [f"{workload} trace={trace}: {e}" for e in errors]
    bare = check_bare()
    print(f"bare directory exits non-zero: {'ok' if not bare else 'FAIL'}")
    failures += bare
    for f in failures:
        print(f"  {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
