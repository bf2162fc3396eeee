#!/usr/bin/env python3
"""Benchmark of garnier-lab: seeded closed-loop workloads, one client, one thread.

Run from the repository root:

    python3 perfbench/run.py --workload bpz_grid --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the first ops of the workload in alternating untraced and
traced passes and reports the per-layer metrics of ``tracing.py`` plus the
tracing overhead. ``--workload all`` runs every workload both ways, each in
its own process, and prints every metric by name with its unit. The last
line of standard output is always one JSON object; the full result, with
every op's verdict (and the spans of a traced pass), goes to
``perfbench/out/``.
"""

from __future__ import annotations

import os

# one process, one thread: pin BLAS/OpenMP pools before numpy is imported
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("bpz_grid", "qpg_grid", "flow_paths")
SETUP_PROBES = 9


def import_package():
    """Import garnier_lab from this checkout's src/ and nowhere else."""
    if not (SRC / "garnier_lab" / "__init__.py").is_file():
        sys.exit(f"perfbench: no garnier_lab sources under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import garnier_lab

    if Path(garnier_lab.__file__).resolve().parent != SRC / "garnier_lab":
        sys.exit(f"perfbench: imported garnier_lab from {garnier_lab.__file__}, not from {SRC}")
    return garnier_lab


def machine_facts() -> dict:
    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return "absent"

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "machine": platform.machine(),
    }


def tail_percentile(latencies: list[float]) -> tuple[int, float]:
    """Highest whole percentile with at least 10 samples above it (nearest rank).

    With 10 samples or fewer no such percentile exists; the maximum is
    reported as percentile 100.
    """
    n = len(latencies)
    ranked = sorted(latencies)
    if n <= 10:
        return 100, ranked[-1]
    p = (100 * (n - 10)) // n
    rank = max(1, -(-p * n // 100))  # ceil(p n / 100)
    return p, ranked[rank - 1]


def run_op(wl, inputs, errors):
    from workloads import Verdict

    t0 = time.perf_counter()
    try:
        verdict = wl.run_op(inputs)
    except errors as exc:
        verdict = Verdict(False, f"{type(exc).__name__}: {exc}")
    return verdict, time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to its first op being ready."""
    out = []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            out.append(time.perf_counter() - t0)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            sys.exit(f"perfbench: set-up probe failed with exit code {proc.returncode}")
    return out


def untraced_run(wl, seed: int, seconds: float, errors):
    """Closed loop of whole op cycles until ``seconds`` have passed."""
    run_op(wl, wl.make_inputs(seed, 0), errors)  # warm-up, not counted
    ops = []
    start = time.perf_counter()
    index = 0
    while True:
        inputs = wl.make_inputs(seed, index)
        verdict, dt = run_op(wl, inputs, errors)
        ops.append({"op": index, "s": dt, "passed": verdict.passed, "detail": verdict.detail})
        index += 1
        if index % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    latencies = [o["s"] for o in ops]
    p, tail = tail_percentile(latencies)
    n = len(ops)
    failed = sum(not o["passed"] for o in ops)
    metrics = {
        "setup_s": statistics.median(measure_setup(wl.name, seed)),
        "ops_per_s": n / wall,
        "op_s.p50": statistics.median(latencies),
        "op_s.tail": tail,
        "ok_frac": (n - failed) / n,
        "peak_rss_mb": peak_rss_mb,
    }
    extra = {
        "tail_percentile": p,
        "samples": n,
        "samples_beyond_tail": sum(x > tail for x in latencies),
        "wall_s": wall,
    }
    return ops, metrics, extra


def traced_run(wl, seed: int, seconds: float, errors):
    """Passes over the first cycle of ops, each op run untraced then traced.

    Running the two back to back, op by op, keeps the machine's drift out of
    the tracing overhead.
    """
    import tracing

    inputs = [wl.make_inputs(seed, i) for i in range(wl.cycle)]
    run_op(wl, inputs[0], errors)  # warm-up, not counted
    ops = []
    untraced_s, traced_s, passes = [], [], []
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        tracer = tracing.Tracer()
        worst = 0.0
        times = {False: 0.0, True: 0.0}
        for i, inp in enumerate(inputs):
            for traced in (False, True):
                try:
                    if traced:
                        tracer.begin_op()
                        tracer.install()
                    verdict, dt = run_op(wl, inp, errors)
                finally:
                    tracer.uninstall()
                times[traced] += dt
                ops.append({"op": i, "s": dt, "passed": verdict.passed, "detail": verdict.detail, "traced": traced})
            worst = max(worst, verdict.max_rel)
        untraced_s.append(times[False])
        traced_s.append(times[True])
        passes.append((tracer, worst))
        now = time.perf_counter()
        if now - start + (now - pass_start) > seconds:
            break

    counts = [[tracing.op_counts(s, c) for s, c in zip(t.spans, t.counts)] for t, _w in passes]
    repeat = all(c == counts[0] for c in counts[1:])
    # counts are equal in every pass; times take the median over passes
    per_pass = [tracing.layer_metrics(t) for t, _w in passes]
    metrics = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
    metrics["quantization.residual.max_rel"] = max(w for _t, w in passes)
    n = len(inputs)
    metrics["trace.untraced_ops_per_s"] = n / statistics.median(untraced_s)
    metrics["trace.traced_ops_per_s"] = n / statistics.median(traced_s)
    metrics["trace.overhead_frac"] = 1.0 - metrics["trace.traced_ops_per_s"] / metrics["trace.untraced_ops_per_s"]
    extra = {
        "passes": len(passes),
        "ops_per_pass": n,
        "counters_repeat": repeat,
        "op_counts": counts[0],
        "spans": tracing.span_dump(passes[0][0]),
    }
    return ops, metrics, extra


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    garnier_lab = import_package()
    import workloads

    wl = workloads.WORKLOADS[name]
    errors = (garnier_lab.GarnierLabError,)
    if traced:
        ops, metrics, extra = traced_run(wl, seed, seconds, errors)
        units = metric_units("per_layer")
    else:
        ops, metrics, extra = untraced_run(wl, seed, seconds, errors)
        units = metric_units("end_to_end")
    failed = sum(not o["passed"] for o in ops)
    correct = failed == 0 and extra.get("counters_repeat", True)
    facts = machine_facts()

    for o in ops:
        tag = " traced" if o.get("traced") else ""
        print(f"op {o['op']:4d}{tag} {'PASS' if o['passed'] else 'FAIL'} {o['s']:.4f}s {o['detail']}")
    print("machine " + " ".join(f"{k}={v}" for k, v in facts.items()))
    print(f"workload {name} seed {seed} seconds {seconds:g} trace {int(traced)}: "
          f"{len(ops)} ops, {failed} failed")
    if traced:
        print(f"traced passes {extra['passes']} x {extra['ops_per_pass']} ops; "
              f"work counters repeat across passes: {extra['counters_repeat']}")
    else:
        print(f"op_s.tail is p{extra['tail_percentile']} of {extra['samples']} samples "
              f"({extra['samples_beyond_tail']} beyond it)")
    # a layer that never ran on this workload has no entry: it did no work
    metrics = {key: metrics.get(key, 0.0) for key in units}
    for key in units:
        print(f"{key} = {metrics[key]:.6g} {units[key]}")

    OUT.mkdir(exist_ok=True)
    result = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(traced),
        "machine": facts,
        "correct": correct,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        **extra,
        "ops": ops,
    }
    (OUT / f"{name}-seed{seed}-trace{int(traced)}.json").write_text(json.dumps(result) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


def run_all(seed: int, seconds: float) -> int:
    """Every workload untraced then traced, each in a fresh process."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for traced in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(traced)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
            if proc.returncode != 0:
                sys.exit(f"perfbench: {name} trace {traced} exited with {proc.returncode}")
            lines = proc.stdout.splitlines()
            res = json.loads(lines[-1])
            print("\n".join(line for line in lines[:-1] if not line.startswith("op ")))
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
            for key, val in res["metrics"].items():
                merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return 0


def setup_probe(workload: str, seed: int) -> int:
    import_package()
    import workloads

    workloads.WORKLOADS[workload].make_inputs(seed, 0)
    print("ready", flush=True)
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        return setup_probe(args.workload, args.seed)
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
