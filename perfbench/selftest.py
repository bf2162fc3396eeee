#!/usr/bin/env python3
"""Self-test: the work counters of the traced run repeat exactly at a fixed seed.

Runs ``run.py --trace 1`` twice per workload, each in its own process, and
compares the per-op work counters (calls and RHS evaluations per layer) the
two runs wrote to ``perfbench/out/``. Exits 1 on any difference. Counts
compare two versions of the program on any machine, so a change that cuts
work can show it with this file's numbers.

    python3 perfbench/selftest.py [--seed 1] [--workload bpz_grid ...]
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
WORKLOADS = ("bpz_grid", "qpg_grid", "flow_paths")


def traced_counts(workload: str, seed: int) -> list[dict]:
    # --seconds 0 runs a single untraced/traced pair of passes
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", "1"]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    result = json.loads((BENCH / "out" / f"{workload}-seed{seed}-trace1.json").read_text())
    if not result["correct"]:
        sys.exit(f"selftest: {workload} seed {seed} reported incorrect output")
    return result["op_counts"]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--workload", nargs="*", default=WORKLOADS, choices=WORKLOADS)
    args = ap.parse_args()
    ok = True
    for name in args.workload:
        first = traced_counts(name, args.seed)
        second = traced_counts(name, args.seed)
        same = first == second
        ok &= same
        total = {k: sum(op.get(k, 0) for op in first) for k in sorted({k for op in first for k in op})}
        print(f"{name} seed {args.seed}: {len(first)} ops, counters {'repeat' if same else 'DIFFER'}")
        for key, value in total.items():
            print(f"  {key} = {value}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
