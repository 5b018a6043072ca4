"""Record a baseline: every workload untraced, then traced, one process each.

    python3 perfbench/record.py --label seed

Writes ``perfbench/baselines/<label>.json`` with the end-to-end metrics, the
per-layer metrics, the tracing overhead (traced wall_s minus untraced
wall_s), the machine information each run reported and the load average
before and after each set of runs.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
from run import ROOT, WORKLOADS  # noqa: E402


def run_once(workload, trace, seconds, scratch):
    out = Path(scratch) / f"{workload}-{trace}.json"
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", "0", "--seconds", str(seconds), "--trace", str(trace),
           "--out", str(out)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if not out.exists():
        raise SystemExit(f"{workload} trace={trace} wrote no record:\n{proc.stderr}")
    return proc.returncode, json.loads(out.read_text())


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    args = ap.parse_args(argv)
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    record = {"label": args.label, "seconds": seconds, "workloads": {}}
    scratch = ROOT / ".bench_tmp"
    scratch.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as tmp:
        for trace in (0, 1):
            key = "traced" if trace else "untraced"
            record[f"loadavg_before_{key}"] = os.getloadavg()
            for workload in WORKLOADS:
                status, run = run_once(workload, trace, seconds, tmp)
                entry = record["workloads"].setdefault(workload, {})
                entry[key] = {
                    "exit_status": status, "failed_frac": run["failed_frac"],
                    "failures": run["failures"], "iterations": len(run["iterations"]),
                    "warm_up_s": run["warm_up_s"], "metrics": run["metrics"],
                }
                record["machine"] = {k: v for k, v in run["machine"].items()
                                     if not k.startswith("loadavg")}
            record[f"loadavg_after_{key}"] = os.getloadavg()
    scratch.rmdir()
    for entry in record["workloads"].values():
        entry["trace_overhead_s"] = (
            entry["traced"]["metrics"]["trace.wall_s"]
            - entry["untraced"]["metrics"]["wall_s"]
        )
    path = BENCH_DIR / "baselines" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {path.relative_to(ROOT)}")
    failed = [w for w, e in record["workloads"].items()
              if e["untraced"]["exit_status"] or e["traced"]["exit_status"]]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
