"""Tiny-size smoke test of the benchmark.

    python3 perfbench/smoke.py

Run from the repository root.  Runs every workload of BENCHMARK.json on tiny
inputs, untraced and traced, and checks the result line against the
benchmark's contract: exit code 0, the four keys, every output correct, and
exactly the metrics and units BENCHMARK.json names.  Then checks that in a
directory holding only BENCHMARK.json and the benchmark's files the benchmark
fails without printing a result.  Exits non-zero on the first failure.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TIMEOUT = 180


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise SystemExit(f"FAIL {what}")


def run(cwd: Path, workload: str, trace: int, tiny: bool = True):
    argv = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
            "--trace", str(trace)] + (["--tiny"] if tiny else [])
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT)


def check_result(workload: str, trace: int) -> None:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, f"{where}: keys")
    expect(result["correct"] is True and result["failed"] == 0, f"{where}: {proc.stderr}")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1, f"{where}: attempted")
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    expect(got == want, f"{where}: metrics {sorted(set(got) ^ set(want))} differ")
    for name, m in result["metrics"].items():
        expect(isinstance(m["value"], (int, float)), f"{where}: {name} is not a number")
    print(f"ok  {where}: {result['attempted']} items")


def check_bare_directory() -> None:
    """Without the program's sources the benchmark must fail and print no result."""
    bare = ROOT / ".perfbench-out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(bare, SPEC["workloads"][0]["name"], 0, tiny=False)
        expect(proc.returncode != 0, "bare directory: benchmark succeeded without the program")
        expect('"metrics"' not in proc.stdout, "bare directory: benchmark printed a result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok  bare directory: fails without a result")


def main() -> int:
    for w in SPEC["workloads"]:
        for trace in (0, 1):
            check_result(w["name"], trace)
    check_bare_directory()
    return 0


if __name__ == "__main__":
    sys.exit(main())
