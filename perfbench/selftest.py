"""Self-test of the benchmark on the tiny (n=2) variants.

    python3 perfbench/selftest.py

Checks that every workload emits each metric of BENCHMARK.json with its
unit, untraced and traced, with nothing failed; that a perturbed reference
fails every case and exits non-zero; and that a directory holding only the
benchmark, without the package source, exits non-zero without a result.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def run(workload, *extra, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            status, result = run(workload, "--trace", str(trace), "--tiny")
            got = {k: v["unit"] for k, v in (result or {}).get("metrics", {}).items()}
            if status != 0 or not result or result["failed"] != 0:
                problems.append(f"{workload} trace={trace}: status {status}, {result and result['failed']} failed")
            if got != expected[trace]:
                problems.append(f"{workload} trace={trace}: metric names or units differ "
                                f"from BENCHMARK.json: {sorted(set(got.items()) ^ set(expected[trace].items()))}")
        status, result = run(workload, "--trace", "0", "--tiny", "--perturb-reference")
        if status == 0 or not result or result["failed"] != result["attempted"]:
            problems.append(f"{workload}: perturbed reference did not fail every case")

    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(BENCH_DIR, Path(bare) / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        status, result = run(spec["workloads"][0]["name"], "--trace", "0", cwd=bare)
        if status == 0 or result is not None:
            problems.append("run without the package source did not fail")
    scratch.rmdir()

    for line in problems:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
