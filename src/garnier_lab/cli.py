"""Command-line front end: scenario configuration, pipelines, reports.

Verbs:

* ``gen``        -- emit a seeded, constraint-satisfying initial state (JSON)
* ``run``        -- run one scenario mode and write a JSON report
* ``verify-all`` -- run every acceptance criterion; exit 0 iff all pass

Exit codes: 0 pass, 1 check failure, 2 configuration error, 3 numerical
singularity. Reports are byte-identical for identical configs and seeds
(wall-clock timings are only written when --timings is passed).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from functools import partial
from pathlib import Path
from typing import Iterator

import numpy as np

from . import acceptance
from .acceptance import CRITERIA, CheckResult
from .errors import ConfigInvalid, GarnierLabError
from .numerics import FDScheme, PathPlan, count_work
from .poly_garnier import PGState, ThetaPG, gen_pg, random_theta_pg
from .quantization import write_residual_csv
from .schlesinger import SchlesingerState, gen_schlesinger_b, integrate_schlesinger

MODES = {
    "schlesinger": ("C1", "C2", "C11"),
    "garnier-go": ("C3",),
    "garnier-poly": ("C4", "C5"),
    "bridge": ("C6",),
    "bpz": ("C7",),
    "quantize-go": ("C8",),
    "quantize-pg": ("C9",),
    "pvi": ("C10",),
}

_SCALE_KEYS = {
    "n_states": ("C1", "C3", "C4", "C6"),
    "n_frames": ("C2", "C7", "C8", "C9"),
    "n_traj": ("C5",),
    "grid_points": ("C7", "C8", "C9"),
}

# the criteria that read each tolerance; _validate_config rejects a key none of the mode's criteria reads
_FD_CRITERIA = ("C7", "C8", "C9")
_TOLERANCE_KEYS = {"rtol": ("C1",), "fd_step": _FD_CRITERIA, "fd_order": _FD_CRITERIA, "richardson": _FD_CRITERIA}


def _is_int(val) -> bool:
    return isinstance(val, int) and not isinstance(val, bool)


def _is_number(val) -> bool:
    return _is_int(val) or isinstance(val, float) and math.isfinite(val)


def _is_positive(val) -> bool:
    return _is_number(val) and val > 0


def _check_seed(seed) -> None:
    if not _is_int(seed) or seed < 0:
        raise ConfigInvalid("seed must be a non-negative integer", field="seed")


def _validate_config(cfg: dict) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigInvalid("configuration must be a JSON object")
    if cfg.get("spec", 1) != 1:
        raise ConfigInvalid("unsupported schema version", field="spec")
    mode = cfg.get("mode")
    if mode not in MODES:
        raise ConfigInvalid(f"mode must be one of {sorted(MODES)}", field="mode")
    _check_seed(cfg.get("seed", 0))
    tol = cfg.get("tolerances", {})
    if not isinstance(tol, dict):
        raise ConfigInvalid("tolerances must be an object", field="tolerances")
    for key in tol:
        if not set(_TOLERANCE_KEYS.get(key, ())) & set(MODES[mode]):
            raise ConfigInvalid(f"the {mode} mode does not read '{key}'", field=f"tolerances.{key}")
    for key, check, what in (("rtol", lambda v: _is_positive(v) and v < 1, "a number in (0, 1)"),
                             ("fd_step", _is_positive, "a positive number"),
                             ("fd_order", _is_int, "an integer"), ("richardson", lambda v: isinstance(v, bool), "a boolean")):
        if key in tol and not check(tol[key]):
            raise ConfigInvalid(f"{key} must be {what}", field=f"tolerances.{key}")
    if "fd_order" in tol and tol["fd_order"] not in (2, 4):
        raise ConfigInvalid("fd_order must be 2 or 4", field="tolerances.fd_order")
    scale = cfg.get("scale", {})
    if not isinstance(scale, dict):
        raise ConfigInvalid("scale must be an object", field="scale")
    for key, val in scale.items():
        if key not in _SCALE_KEYS:
            raise ConfigInvalid(f"unknown scale key '{key}'", field="scale")
        if not _is_int(val) or val <= 0:
            raise ConfigInvalid("scale entries must be positive integers", field=f"scale.{key}")
    if "initial_state" in cfg and cfg["initial_state"] is not None and mode not in ("schlesinger", "pvi"):
        raise ConfigInvalid("initial_state is only supported for the schlesinger and pvi modes", field="initial_state")
    theta = cfg.get("theta")
    if theta is not None:
        pg_modes = ("garnier-poly", "pvi", "bridge", "quantize-pg")
        try:
            if mode in pg_modes:
                ThetaPG.from_json(theta)  # enforces the Fuchs relation
            else:
                from .schlesinger import ThetaGO

                ThetaGO.from_json(theta)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            raise ConfigInvalid(f"exponent block rejected: {exc}", field="theta") from exc
    return cfg


def _criterion_kwargs(cid: str, cfg: dict) -> dict:
    kwargs: dict = {}
    seed = cfg.get("seed")
    scale = cfg.get("scale", {})
    tol = cfg.get("tolerances", {})
    if seed is not None:
        kwargs["seed" if cid == "C12" else "seed0"] = int(seed)
    for key, cids in _SCALE_KEYS.items():
        if cid in cids and key in scale:
            kwargs[key] = scale[key]
    if "rtol" in tol and cid in _TOLERANCE_KEYS["rtol"]:
        kwargs["rtol"] = float(tol["rtol"])
    if any(cid in _TOLERANCE_KEYS[key] for key in tol.keys() - {"rtol"}):
        base = acceptance.QPG_FD if cid == "C9" else acceptance.LAB_FD
        kwargs["scheme"] = FDScheme(
            order=int(tol.get("fd_order", base.order)),
            step=float(tol.get("fd_step", base.step)),
            richardson=bool(tol.get("richardson", base.richardson)),
        )
    return kwargs


def _load_initial_state(cls, cfg: dict):
    """Parse the initial_state block; a malformed one is a configuration error."""
    try:
        return cls.from_json(cfg["initial_state"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise ConfigInvalid(f"malformed state ({type(exc).__name__}: {exc})", field="initial_state") from exc


def _parse_t_path(wps) -> list[tuple[complex, complex]]:
    """At least two (t1, t2) waypoints, each t given as an [re, im] pair of numbers."""

    def is_complex(z) -> bool:
        return isinstance(z, list) and len(z) == 2 and all(_is_number(c) for c in z)

    if not (isinstance(wps, list) and len(wps) >= 2) or not all(
        isinstance(pair, list) and len(pair) == 2 and all(is_complex(z) for z in pair) for pair in wps
    ):
        raise ConfigInvalid("t_path must list at least two [[re, im], [re, im]] waypoints", field="paths.t_path")
    return [tuple(complex(z[0], z[1]) for z in pair) for pair in wps]


def _custom_schlesinger_check(cfg: dict) -> CheckResult:
    """Conservation check on a user-supplied state and (t1, t2) path."""
    state = _load_initial_state(SchlesingerState, cfg)
    paths = cfg.get("paths") or {}
    if not isinstance(paths, dict):
        raise ConfigInvalid("paths must be an object", field="paths")
    wps = paths.get("t_path")
    if wps is not None:
        waypoints = _parse_t_path(wps)
    else:
        shift = [(0.0, 0.0), (0.05 + 0.22j, -0.04 - 0.18j), (0.16 + 0.1j, -0.12 - 0.05j)]
        waypoints = [(state.t1 + a, state.t2 + b) for a, b in shift]
    radius = paths.get("exclusion_radius", 0.04)
    if not _is_positive(radius):
        raise ConfigInvalid("exclusion_radius must be a positive number", field="paths.exclusion_radius")
    try:
        path = PathPlan(waypoints, radius)
    except ValueError as exc:  # e.g. two consecutive waypoints coincide
        raise ConfigInvalid(str(exc), field="paths.t_path") from exc
    if abs(waypoints[0][0] - state.t1) + abs(waypoints[0][1] - state.t2) > 1e-12:
        raise ConfigInvalid("t_path must start at the state's times", field="paths.t_path")
    rtol = float(cfg.get("tolerances", {}).get("rtol", 1e-12))
    with count_work() as work:
        drift = acceptance.conservation_drift(state, integrate_schlesinger(state, path, rtol=rtol)[-1][1])
    tol = 1e-9
    return CheckResult(
        criterion="C1",
        passed=drift <= tol,
        detail=f"max conserved-quantity drift {drift:.3e} on the configured path (tol {tol:.0e})",
        metrics={"max_drift": drift, "path_length": path.total_length, **work},
    )


def _custom_pvi_check(cfg: dict) -> CheckResult:
    # NotOnReduction propagates (exit code 3) when the state/parameters are
    # incompatible with the reduction; this is the documented surfacing path
    state = _load_initial_state(PGState, cfg)
    return acceptance.criterion_10(initial_state=state)


def run_scenario(cfg: dict) -> dict:
    """Execute one scenario and return the report as a plain dict."""
    cfg = _validate_config(dict(cfg))
    mode = cfg["mode"]
    if cfg.get("initial_state") is not None:  # validated: only these two modes take one
        cid, check = {"schlesinger": ("C1", _custom_schlesinger_check), "pvi": ("C10", _custom_pvi_check)}[mode]
        jobs = [(cid, partial(check, cfg))]
    else:
        jobs = [(cid, partial(CRITERIA[cid], **_criterion_kwargs(cid, cfg))) for cid in MODES[mode]]
    timings: dict[str, float] = {}
    checks = list(_timed(jobs, timings))
    return _build_report({k: cfg[k] for k in sorted(cfg) if k != "output"}, checks, timings)


def _timed(jobs, timings: dict[str, float]) -> Iterator[CheckResult]:
    """Run (criterion id, job) pairs in order, yielding each result; wall times go into ``timings``."""
    for cid, job in jobs:
        t0 = time.time()
        result = job()
        timings[cid] = time.time() - t0
        yield result


def _build_report(config: dict, checks: list[CheckResult], timings: dict[str, float]) -> dict:
    """The report of ``run`` and ``verify-all``; keys starting with "_" stay out of the file."""
    return {
        "spec": 1,
        "config": config,
        "checks": [c.to_json() for c in checks],
        "verdicts": {c.criterion: bool(c.passed) for c in checks},
        "passed": bool(all(c.passed for c in checks)),
        "_timings_s": timings,  # written only when requested
        "_checks": checks,
    }


def write_report(report: dict, path, timings: bool = False) -> None:
    clean = {k: v for k, v in report.items() if not k.startswith("_")}
    if timings:
        clean["timings_s"] = report.get("_timings_s", {})
    Path(path).write_text(json.dumps(clean, indent=2) + "\n")


def _write_outputs(report: dict, out, args) -> None:
    """Write the report to ``out`` (if set) and, with --csv, the per-point residuals beside it."""
    if out:
        write_report(report, out, timings=args.timings)
        if args.csv:
            reports = [r for c in report["_checks"] for r in c.reports]
            write_residual_csv(reports, Path(out).with_suffix(".csv"))


def _print_verdicts(checks: list[CheckResult]) -> None:
    for c in checks:
        print(f"[{'PASS' if c.passed else 'FAIL'}] {c.criterion}: {c.detail}")


def _cmd_gen(args) -> int:
    _check_seed(args.seed)
    try:
        theta_block = json.loads(args.theta) if args.theta else None
    except json.JSONDecodeError as exc:
        raise ConfigInvalid(f"--theta is not valid JSON: {exc}", field="theta") from exc
    try:
        if args.kind == "schlesinger-B":
            if theta_block is not None:
                th = [complex(p[0], p[1]) for p in theta_block]
            else:
                rng = np.random.default_rng(args.seed)
                th = acceptance._random_theta4(rng)
            state = gen_schlesinger_b(th, seed=args.seed)
        else:
            if theta_block is not None:
                params = ThetaPG.from_json(theta_block)
            else:
                params = random_theta_pg(args.seed, kond=args.kond)
            state = gen_pg(params, seed=args.seed, on_reduction=args.kond)
    except (ValueError, TypeError, KeyError, IndexError) as exc:
        raise ConfigInvalid(f"exponent block rejected: {exc}", field="theta") from exc
    payload = state.to_json()
    text = json.dumps(payload, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_run(args) -> int:
    cfg: dict = {}
    if args.config:
        try:
            cfg = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigInvalid(f"cannot read configuration: {exc}") from exc
    if args.mode:
        cfg["mode"] = args.mode
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.rtol is not None:
        cfg.setdefault("tolerances", {})["rtol"] = args.rtol
    if args.fd_step is not None:
        cfg.setdefault("tolerances", {})["fd_step"] = args.fd_step
    if args.out:
        cfg["output"] = args.out
    report = run_scenario(cfg)
    _write_outputs(report, cfg.get("output"), args)
    _print_verdicts(report["_checks"])
    return 0 if report["passed"] else 1


def _cmd_verify_all(args) -> int:
    if args.seed is not None:
        _check_seed(args.seed)
    seed = {} if args.seed is None else {"seed0": args.seed}
    jobs = [(cid, partial(fn, **({} if cid == "C12" else seed))) for cid, fn in CRITERIA.items()]
    results = []
    timings: dict[str, float] = {}
    for result in _timed(jobs, timings):
        _print_verdicts([result])
        results.append(result)
    report = _build_report({"mode": "verify-all", "seed": args.seed}, results, timings)
    _write_outputs(report, args.out, args)
    print(f"verify-all: {'PASS' if report['passed'] else 'FAIL'} "
          f"({sum(c.passed for c in results)}/{len(results)} criteria)")
    return 0 if report["passed"] else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="garnier-lab", description=__doc__)
    sub = ap.add_subparsers(dest="verb", required=True)

    g = sub.add_parser("gen", help="emit a seeded initial state as JSON")
    g.add_argument("--kind", choices=["schlesinger-B", "pg"], required=True)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--theta", help="JSON exponent block (defaults to a seeded draw)")
    g.add_argument("--kond", action="store_true", help="pg only: reduction-compatible exponents and locus state")
    g.add_argument("--out", help="output path (stdout when omitted)")
    g.set_defaults(fn=_cmd_gen)

    r = sub.add_parser("run", help="run one scenario mode")
    r.add_argument("--mode", choices=sorted(MODES))
    r.add_argument("--config", help="JSON scenario configuration")
    r.add_argument("--seed", type=int)
    r.add_argument("--out", help="report path")
    r.add_argument("--csv", action="store_true", help="also dump per-point residuals next to the report")
    r.add_argument("--rtol", type=float)
    r.add_argument("--fd-step", dest="fd_step", type=float)
    r.add_argument("--timings", action="store_true", help="include wall-clock timings in the report file")
    r.set_defaults(fn=_cmd_run)

    v = sub.add_parser("verify-all", help="run every acceptance criterion")
    v.add_argument("--seed", type=int)
    v.add_argument("--out", help="report path")
    v.add_argument("--csv", action="store_true")
    v.add_argument("--timings", action="store_true")
    v.set_defaults(fn=_cmd_verify_all)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigInvalid as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except GarnierLabError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
